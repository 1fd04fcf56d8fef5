import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from nomfix import (
    Abs,
    App,
    Atom,
    IllFormedTermError,
    NameGenerator,
    Permutation,
    Signature,
    Substitution,
    Susp,
    Swapping,
    Theory,
    Tup,
    Var,
    act,
    atom,
    atoms_of,
    check_well_formed,
    flatten,
    free_vars,
    generator_avoiding,
    is_ground,
    pair,
    parse_perm,
    parse_term,
    print_term,
    same_term,
    term_size,
    var,
)
from nomfix.syntax import Renaming
from gen import ATOMS, SIG_FULL, VARS, random_perm, random_term

a, b, c, d = (Atom(n) for n in "abcd")


def swaps(*pairs):
    return Permutation(tuple(Swapping(x, y) for x, y in pairs))


class TestPermutation:
    def test_rightmost_swapping_acts_first(self):
        p = swaps((a, b), (b, c))
        assert p(c) == a
        assert p(b) == c
        assert p(a) == b
        assert p(d) == d

    def test_identity(self):
        assert Permutation.identity()(a) == a
        assert Permutation.identity().is_identity()
        assert swaps((a, b), (a, b)).is_identity()

    def test_swapping_same_atom_rejected(self):
        with pytest.raises(IllFormedTermError):
            Swapping(a, a)

    def test_inverse(self):
        p = swaps((a, b), (b, c), (c, d))
        for x in (a, b, c, d):
            assert p.inverse()(p(x)) == x
            assert p(p.inverse()(x)) == x

    def test_compose_applies_right_first(self):
        p, q = swaps((a, b)), swaps((b, c))
        assert p.compose(q)(c) == a
        assert q.compose(p)(c) == b

    def test_conjugation(self):
        # (a b) conjugated by (b c) swaps a and c
        conj = swaps((a, b)).conjugate(swaps((b, c)))
        assert conj.same_action(swaps((a, c)))
        assert conj(a) == c and conj(c) == a and conj(b) == b

    def test_support(self):
        assert swaps((a, b), (b, c)).support() == {a, b, c}
        assert swaps((a, b), (a, b)).support() == frozenset()

    def test_normalize_canonical(self):
        # two spellings of the same 3-cycle construct one permutation
        p = swaps((a, b), (b, c))
        q = swaps((b, c), (c, a), (b, c), (b, c))
        assert p == q
        assert hash(p) == hash(q)
        assert str(p) == str(q) == "(a b)(b c)"

    def test_group_laws_random(self, rng):
        for _ in range(300):
            p, q, r = (random_perm(rng) for _ in range(3))
            x = rng.choice(ATOMS)
            assert p.compose(q).compose(r)(x) == p.compose(q.compose(r))(x)
            assert p.compose(p.inverse())(x) == x
            assert p.compose(q).inverse().same_action(q.inverse().compose(p.inverse()))


class TestTermBasics:
    def test_tuple_arity(self):
        with pytest.raises(IllFormedTermError):
            Tup((atom("a"),))

    def test_sizes(self):
        t = parse_term("[a] f((X, a))")
        assert term_size(t) == 5

    def test_free_vars_and_atoms(self):
        t = parse_term("[a] (f((a b).X), Y, b)")
        assert free_vars(t) == {Var("X"), Var("Y")}
        assert atoms_of(t) == {a, b}
        assert not is_ground(t)
        assert is_ground(parse_term("[a] f(b)"))

    def test_same_term_modulo_perm_action(self):
        s = Susp(swaps((a, b), (a, b), (b, c)), Var("X"))
        t = Susp(swaps((b, c)), Var("X"))
        assert s == t
        assert same_term(s, t)
        assert not same_term(s, Susp(swaps((b, c)), Var("Y")))


class TestAction:
    def test_action_on_each_former(self):
        p = swaps((a, b))
        assert act(p, atom("a")) == atom("b")
        assert act(p, parse_term("[a] b")) == parse_term("[b] a")
        assert act(p, parse_term("f(a)")) == parse_term("f(b)")
        assert act(p, pair(atom("a"), atom("c"))) == pair(atom("b"), atom("c"))
        got = act(p, var("X"))
        assert isinstance(got, Susp) and got.perm.same_action(p)

    def test_action_is_functorial(self, rng):
        for _ in range(200):
            p, q = random_perm(rng), random_perm(rng)
            t = random_term(rng, SIG_FULL)
            assert same_term(act(p, act(q, t)), act(p.compose(q), t))
            assert same_term(act(p.inverse(), act(p, t)), t)


class TestSubstitution:
    def test_suspension_application_moves_result(self):
        sigma = Substitution({Var("X"): atom("a")})
        assert sigma(parse_term("(a b).X")) == atom("b")

    def test_homomorphic(self):
        sigma = Substitution({Var("X"): parse_term("f(a)")})
        assert sigma(parse_term("[b] (X, c)")) == parse_term("[b] (f(a), c)")

    def test_substitution_commutes_with_action(self, rng):
        # pi.(t sigma) equals (pi.t) sigma
        for _ in range(200):
            p = random_perm(rng)
            t = random_term(rng, SIG_FULL)
            sigma = Substitution(
                {x: random_term(rng, SIG_FULL, depth=2) for x in VARS if rng.random() < 0.7}
            )
            assert same_term(act(p, sigma(t)), sigma(act(p, t)))

    def test_compose_is_sequential_application(self, rng):
        for _ in range(150):
            t = random_term(rng, SIG_FULL)
            s1 = Substitution({VARS[0]: random_term(rng, SIG_FULL, depth=2)})
            s2 = Substitution(
                {x: random_term(rng, SIG_FULL, depth=2) for x in VARS if rng.random() < 0.5}
            )
            assert same_term(s1.compose(s2)(t), s2(s1(t)))

    def test_equality_extensional(self):
        s1 = Substitution({Var("X"): Susp(swaps((a, b), (a, b)), Var("Y"))})
        s2 = Substitution({Var("X"): var("Y")})
        assert s1 == s2


class TestFlatten:
    sig = Signature({"cat": Theory.A, "*": Theory.AC, "f": Theory.NONE})

    def test_flattens_nested_applications(self):
        t = parse_term("cat(cat(a, b), cat(c, d))", self.sig)
        got = flatten(self.sig, t)
        assert got == App("cat", Tup((atom("a"), atom("b"), atom("c"), atom("d"))))

    def test_plain_symbols_untouched(self):
        t = parse_term("f(f(a))", self.sig)
        assert flatten(self.sig, t) == t

    def test_idempotent(self, rng):
        for _ in range(150):
            t = random_term(rng, self.sig)
            once = flatten(self.sig, t)
            assert flatten(self.sig, once) == once

    def test_flatten_under_binders_and_tuples(self):
        t = parse_term("[a] (*(*(a, b), c), f(b))", self.sig)
        got = flatten(self.sig, t)
        assert got == Abs(a, Tup((App("*", Tup((atom("a"), atom("b"), atom("c")))), App("f", atom("b")))))


class TestSignature:
    def test_well_formed_checks_c_pairs(self):
        sig = Signature({"+": Theory.C})
        check_well_formed(sig, parse_term("+(a, b)", sig))
        with pytest.raises(IllFormedTermError):
            check_well_formed(sig, App("+", atom("a")))

    def test_undeclared_symbol(self):
        sig = Signature({"f": Theory.NONE})
        with pytest.raises(Exception):
            sig.theory("g")
        assert Signature(permissive=True).theory("g") is Theory.NONE


class TestNameGenerator:
    def test_prefix_and_flag(self):
        gen = generator_avoiding(set())
        x = gen.fresh()
        assert x.generated and x.name == "#c0"
        assert gen.fresh().name == "#c1"

    def test_avoids_existing_generated_atoms(self):
        gen = generator_avoiding({Atom("#c4", gen_index=4), a})
        assert gen.fresh().name == "#c5"

    def test_custom_prefix(self):
        gen = generator_avoiding(set(), prefix="%n")
        assert gen.fresh().name == "%n0"

    @pytest.mark.parametrize("prefix", ["#c", "c", "%n"])
    def test_prefix_of_atoms_accepted(self, prefix):
        assert NameGenerator(prefix).fresh().name == prefix + "0"

    @pytest.mark.parametrize("prefix", ["", "X", "Xa", "0", "a b", "c\t"] + [f"c{ch}" for ch in "()[],.;:?="])
    def test_prefix_not_printing_as_atoms_rejected(self, prefix):
        with pytest.raises(IllFormedTermError):
            NameGenerator(prefix)
        with pytest.raises(IllFormedTermError):
            generator_avoiding(set(), prefix=prefix)


FIVE = tuple(Atom(n) for n in "abcde")
swapping_lists = st.lists(
    st.tuples(st.sampled_from(FIVE), st.sampled_from(FIVE)).filter(lambda xy: xy[0] != xy[1]),
    max_size=12,
)


def reference_action(pairs) -> tuple:
    """Where the raw list sends each atom, its swappings applied right to left."""
    out = []
    for x in FIVE:
        for left, right in reversed(pairs):
            x = right if x == left else left if x == right else x
        out.append(x)
    return tuple(out)


@given(swapping_lists, swapping_lists, st.booleans())
def test_canonical_form_is_equality_of_action(l1, l2, respell):
    if respell:
        # l1 (l2 l2^-1) denotes l1's permutation, spelled differently
        l2 = l1 + l2 + l2[::-1]
    p, q = swaps(*l1), swaps(*l2)
    assert (p == q) == (reference_action(l1) == reference_action(l2))
    if p == q:
        assert hash(p) == hash(q) and str(p) == str(q)
    assert parse_perm(str(p)) == p


@given(st.integers(min_value=0, max_value=10**6))
def test_atom_ordering_total(k):
    xs = [Atom("a"), Atom("b"), Atom("#c0", gen_index=0), Atom(f"#c{k}", gen_index=k)]
    assert sorted(xs) == sorted(xs, key=lambda x: (x.name, x.gen_index))


class TestInternedAtom:
    def test_one_object_per_name_and_index(self):
        assert Atom("a") is a and Atom(name="a", gen_index=-1) is a
        assert Atom("#c3", gen_index=3) is Atom("#c3", 3)
        assert Atom("#c3") is not Atom("#c3", gen_index=3)
        assert Atom("#c3") != Atom("#c3", gen_index=3)

    def test_pickle_and_copy_return_the_interned_atom(self):
        g = Atom("#c7", gen_index=7)
        for x in (a, g):
            assert pickle.loads(pickle.dumps(x)) is x
            assert copy.copy(x) is x and copy.deepcopy(x) is x
        t = parse_term("[a] (a, (a b).X)")
        assert pickle.loads(pickle.dumps(t)) == t

    def test_immutable_with_dataclass_repr(self):
        with pytest.raises(AttributeError):
            a.name = "b"
        with pytest.raises(AttributeError):
            del a.gen_index
        assert repr(a) == "Atom(name='a', gen_index=-1)"
        assert str(Atom("#c0", gen_index=0)) == "#c0"

    def test_table_does_not_keep_dead_atoms(self):
        import nomfix.syntax

        gen = NameGenerator(prefix="table")
        for _ in range(20_000):
            gen.fresh()
        assert len(nomfix.syntax._INTERNED) < 10_000


def reference_size(t) -> int:
    """The number of nodes of t, folded afresh on every call."""
    match t:
        case Abs(_, s) | App(_, s):
            return 1 + reference_size(s)
        case Tup(items):
            return 1 + sum(map(reference_size, items))
    return 1


def reference_vars(t) -> set:
    """The variables of t, folded afresh on every call."""
    match t:
        case Susp(_, x):
            return {x}
        case Abs(_, s) | App(_, s):
            return reference_vars(s)
        case Tup(items):
            return set().union(*map(reference_vars, items))
    return set()


def subterms(t):
    yield t
    match t:
        case Abs(_, s) | App(_, s):
            yield from subterms(s)
        case Tup(items):
            for s in items:
                yield from subterms(s)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_memoised_size_and_vars_match_a_fresh_fold(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG_FULL, depth=4)
    p = random_perm(rng)
    sigma = Substitution({x: random_term(rng, SIG_FULL, depth=2) for x in VARS if rng.random() < 0.6})
    shown = (repr(t), print_term(t), hash(t))
    # derived before t's memo is filled, and after, when act carries it over
    derived = [act(p, t), sigma(t), flatten(SIG_FULL, t)]
    assert (term_size(t), free_vars(t)) == (reference_size(t), reference_vars(t))
    derived += [act(p, t), sigma(t), flatten(SIG_FULL, t), act(p, sigma(t))]
    for u in [t, *derived]:
        for v in subterms(u):
            assert isinstance(free_vars(v), frozenset)
            assert (term_size(v), free_vars(v)) == (reference_size(v), reference_vars(v))
    # filling the memo changes nothing the term shows: twin is t built again, memo empty
    twin = random_term(random.Random(seed), SIG_FULL, depth=4)
    assert (repr(t), print_term(t), hash(t)) == shown == (repr(twin), print_term(twin), hash(twin))
    assert t == twin and twin == t


@given(swapping_lists, swapping_lists)
def test_renaming_composes_swappings_on_the_left(pairs, more):
    rho = Renaming()
    for x, y in pairs:
        rho.swap(x, y)
    # the last swapping composed is the leftmost, so it acts last
    p = swaps(*reversed(pairs))
    assert rho.permutation() == p
    for x in FIVE:
        assert rho(x) == p(x) and rho.inverse(x) == p.inverse()(x)
    q = swaps(*more)
    assert rho.compose(q) == p.compose(q)
    for x, y in reversed(pairs):
        rho.swap(x, y)
    assert rho.image == {} and rho.preimage == {}
