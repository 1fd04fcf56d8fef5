"""The per-node walks over terms: each dispatches on the node's type, rejects
a non-term, in the checking engines answers at any depth and derives what
the recursive engines it replaced derived, gives the verdicts of the
canonical-permutation formulas it replaced, and, in the one rebuild behind
act, flatten and Substitution, gives what the recursive walks it replaced
gave, sharing what it leaves unchanged."""

import random
import sys

import pytest
from hypothesis import given, strategies as st

from nomfix import (
    Abs,
    App,
    Atom,
    AtomTerm,
    Eq,
    Fix,
    FixpointContext,
    FreshnessContext,
    NameGenerator,
    Permutation,
    Signature,
    Substitution,
    Susp,
    Swapping,
    Theory,
    Tup,
    UndeclaredSymbolError,
    Var,
    act,
    atoms_of,
    check_alpha_fixp,
    check_alpha_fresh,
    check_fixp,
    check_fresh,
    check_well_formed,
    flatten,
    free_atoms,
    free_vars,
    is_ground,
    print_term,
    term_size,
)
from nomfix.alpha import derive, trace_root
from nomfix.syntax import Renaming, equational_args
from gen import (
    ATOMS,
    SIG_C,
    SIG_CLASSES,
    SIG_FULL,
    SIG_PLAIN,
    VARS,
    random_fixp_context,
    random_fresh_context,
    random_perm,
    random_term,
    rename_binders,
)
import recursive_engines

FIXPOINT = sys.modules["nomfix.fixpoint"]
FRESHNESS = sys.modules["nomfix.freshness"]
UNIFY = sys.modules["nomfix.unify"]

a, b, c = Atom("a"), Atom("b"), Atom("c")
X = Var("X")
SWAP = Permutation.swap(b, c)


class TestNotATerm:
    """Every walk raises TypeError("not a term: ...") on a node of no term
    class, at the top and, for the recursive ones, below a term."""

    WALKS = {
        "act": lambda t: act(SWAP, t),
        "free_vars": free_vars,
        "free_atoms": free_atoms,
        "term_size": term_size,
        "flatten": lambda t: flatten(SIG_FULL, t),
        "check_well_formed": lambda t: check_well_formed(SIG_FULL, t),
        "Substitution": lambda t: Substitution({X: AtomTerm(a)})(t),
        "print_term": print_term,
        "alpha, freshness": lambda t: check_alpha_fresh(SIG_PLAIN, FreshnessContext(), t, t),
        "alpha, fixed-point": lambda t: check_alpha_fixp(SIG_PLAIN, FixpointContext(), t, t, gen=NameGenerator()),
        "fixp": lambda t: check_fixp(SIG_PLAIN, FixpointContext(), SWAP, t, gen=NameGenerator()),
        "fresh": lambda t: check_fresh(FreshnessContext(), b, t),
    }
    RULES = {
        "eq rule": lambda t: UNIFY._eq_rule(Eq(t, t), NameGenerator(), None),
        "fix rule": lambda t: UNIFY._fix_rule(Fix(SWAP, t), NameGenerator(), None),
    }

    @pytest.mark.parametrize("walk", sorted({**WALKS, **RULES}))
    def test_at_the_top(self, walk):
        with pytest.raises(TypeError, match="not a term: "):
            {**self.WALKS, **self.RULES}[walk](object())

    @pytest.mark.parametrize("walk", sorted(WALKS))
    @pytest.mark.parametrize(
        "wrap",
        [lambda make, t: make(Abs, a, t), lambda make, t: make(App, "f", t), lambda make, t: make(Tup, (AtomTerm(a), t))],
    )
    def test_below_a_term(self, walk, wrap):
        if walk in ("term_size", "free_vars"):
            # these read the top node's fields, which its constructor sets
            # from its children's, so they have no walk below a term: the
            # constructor is what rejects the child for them
            with pytest.raises(TypeError, match="not a term: <object"):
                wrap(lambda cls, *fields: cls(*fields), object())
            return
        node = wrap(past_constructor, object())
        with pytest.raises(TypeError, match="not a term: <object"):
            self.WALKS[walk](node)


def past_constructor(cls, *fields):
    """cls(*fields), one field holding an object of no term class, built
    without the constructor, which would reject it.  Its size and variables
    are those of the node with X in the object's place, so that no walk
    stops at the top node."""

    def as_x(v):
        return tuple(map(as_x, v)) if type(v) is tuple else Susp(Permutation.identity(), X) if type(v) is object else v

    model = cls(*map(as_x, fields))
    node = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_size", model._size)
    object.__setattr__(node, "_vars", model._vars)
    return node


def abstractions(n):
    """[a]...[a] a, n binders deep, built afresh."""
    t = AtomTerm(a)
    for _ in range(n):
        t = Abs(a, t)
    return t


def applications(n):
    """f(...f(a)...), n applications deep, built afresh."""
    t = AtomTerm(a)
    for _ in range(n):
        t = App("f", t)
    return t


CHECKS = {
    "check_alpha_fixp": lambda t: check_alpha_fixp(SIG_PLAIN, FixpointContext(), t, t),
    "check_alpha_fresh": lambda t: check_alpha_fresh(SIG_PLAIN, FreshnessContext(), t, t),
    "check_fixp": lambda t: check_fixp(SIG_PLAIN, FixpointContext(), SWAP, t),
    "check_fresh": lambda t: check_fresh(FreshnessContext(), b, t),
}
SHAPES = [(check, build) for check in CHECKS for build in (abstractions, applications)]
# five times Python's default recursion limit, which the recursive engines
# could not pass
DEPTH = 5000


@pytest.mark.parametrize("check, build", SHAPES, ids=[f"{c}-{b.__name__}" for c, b in SHAPES])
def test_deep_terms_answer_as_deep_as_before(check, build):
    """Every check derives its premises on one explicit stack, so it answers
    five times deeper than the recursive engines, which ran out of frames."""
    assert sys.getrecursionlimit() == 1000
    assert CHECKS[check](build(DEPTH)) is True


def renamed_abstractions(n, prefix):
    """[p0]...[p(n-1)] p0, n binders deep: over prefixes a and b, every
    level renames a binder, and every body is ground."""
    t = AtomTerm(Atom(f"{prefix}0"))
    for i in reversed(range(n)):
        t = Abs(Atom(f"{prefix}{i}"), t)
    return t


RENAMED_CHECKS = {
    "check_alpha_fixp": lambda s, t: check_alpha_fixp(SIG_PLAIN, FixpointContext(), s, t),
    "check_alpha_fresh": lambda s, t: check_alpha_fresh(SIG_PLAIN, FreshnessContext(), s, t),
}


@pytest.mark.parametrize("check", sorted(RENAMED_CHECKS))
def test_deep_renamed_binders_answer_as_deep(check):
    """The ground side condition of every abs-rename, decided from the
    memoised free atoms, answers as deep as the abstractions above."""
    assert sys.getrecursionlimit() == 1000
    assert RENAMED_CHECKS[check](renamed_abstractions(DEPTH, "a"), renamed_abstractions(DEPTH, "b")) is True


def derivations(engines, sig, fresh_ctx, fixp_ctx, s, t, p, x) -> list:
    """The verdict and trace records of each check of engines (nomfix or
    recursive_engines) on s ~ t, p fix t and x # t."""
    calls = [
        lambda trace: engines.check_alpha_fixp(sig, fixp_ctx, s, t, trace=trace),
        lambda trace: engines.check_alpha_fresh(sig, fresh_ctx, s, t, trace=trace),
        lambda trace: engines.check_fixp(sig, fixp_ctx, p, t, trace=trace),
        lambda trace: engines.check_fresh(fresh_ctx, x, t, trace=trace),
    ]
    out = []
    for call in calls:
        trace = []
        out.append((call(trace), [node.record() for node in trace]))
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(sorted(SIG_CLASSES)), st.booleans())
def test_stack_engines_derive_what_the_recursive_ones_did(seed, sig_name, ground):
    """On random goals over plain, A, C and AC signatures, the right side
    often the left with binders renamed and moved by a permutation, each
    check gives the recursive engine's verdict and its very trace."""
    rng, sig = random.Random(seed), SIG_CLASSES[sig_name]
    s = random_term(rng, sig, depth=4, ground=ground)
    t = rename_binders(rng, s) if rng.random() < 0.6 else random_term(rng, sig, depth=4, ground=ground)
    if rng.random() < 0.3:
        t = act(random_perm(rng), t)
    goal = (random_fresh_context(rng), random_fixp_context(rng), s, t, random_perm(rng), rng.choice(ATOMS))
    assert derivations(sys.modules["nomfix"], sig, *goal) == derivations(recursive_engines, sig, *goal)


def reference_flatten(sig, t):
    """flatten as it was, rebuilding every node."""
    if isinstance(t, (AtomTerm, Susp)):
        return t
    if isinstance(t, Abs):
        return Abs(t.binder, reference_flatten(sig, t.body))
    if isinstance(t, Tup):
        return Tup(tuple(reference_flatten(sig, s) for s in t.items))
    f = t.symbol
    if sig.theory(f) not in (Theory.A, Theory.AC):
        return App(f, reference_flatten(sig, t.arg))
    args = [reference_flatten(sig, s) for s in reference_args(f, t.arg)]
    return App(f, args[0] if len(args) == 1 else Tup(tuple(args)))


def reference_act(perm, t):
    """act as it was, by recursion, rebuilding every node."""
    if isinstance(t, AtomTerm):
        return AtomTerm(perm(t.atom))
    if isinstance(t, Abs):
        return Abs(perm(t.binder), reference_act(perm, t.body))
    if isinstance(t, Tup):
        return Tup(tuple(reference_act(perm, s) for s in t.items))
    if isinstance(t, App):
        return App(t.symbol, reference_act(perm, t.arg))
    return Susp(perm.compose(t.perm), t.var)


def reference_substitute(bindings, t):
    """Substitution as a recursive walk, rebuilding every node."""
    if isinstance(t, AtomTerm):
        return t
    if isinstance(t, Susp):
        s = bindings.get(t.var)
        return t if s is None else reference_act(t.perm, s)
    if isinstance(t, Abs):
        return Abs(t.binder, reference_substitute(bindings, t.body))
    if isinstance(t, Tup):
        return Tup(tuple(reference_substitute(bindings, s) for s in t.items))
    return App(t.symbol, reference_substitute(bindings, t.arg))


def reference_args(f, arg) -> list:
    """The arguments of f applied to arg, collected through nested
    applications of f by recursion."""
    parts = arg.items if isinstance(arg, Tup) else (arg,)
    return [x for s in parts for x in (reference_args(f, s.arg) if isinstance(s, App) and s.symbol == f else (s,))]


def children(t) -> tuple:
    return (t.body,) if isinstance(t, Abs) else (t.arg,) if isinstance(t, App) else getattr(t, "items", ())


def nodes(t):
    yield t
    for child in children(t):
        yield from nodes(child)


def has_equational_app(sig, t) -> bool:
    return any(isinstance(u, App) and sig.theory(u.symbol) in (Theory.A, Theory.AC) for u in nodes(t))


class TestFlattenShares:
    @pytest.mark.parametrize("sig", [SIG_PLAIN, SIG_C], ids=["plain", "C"])
    def test_returns_the_node_itself(self, rng, sig):
        for _ in range(200):
            t = random_term(rng, sig, depth=4)
            term_size(t)
            assert flatten(sig, t) is t
            assert t._size is not None

    def test_c_nest_is_not_rebuilt(self):
        t = AtomTerm(a)
        for i in range(300):
            t = App("+", Tup((AtomTerm(Atom(f"a{i}")), t)))
        assert flatten(SIG_C, t) is t

    def test_a_and_ac_results_unchanged(self, rng):
        flattened = 0
        for _ in range(300):
            t = random_term(rng, SIG_FULL, depth=4)
            out = flatten(SIG_FULL, t)
            assert out == reference_flatten(SIG_FULL, t)
            flattened += out is not t
            # what has no A or AC application below it is shared, not rebuilt
            for u in nodes(t):
                if not has_equational_app(SIG_FULL, u):
                    assert flatten(SIG_FULL, u) is u
        assert flattened > 50


class TestRebuild:
    """act, flatten and Substitution share one rebuild over an explicit
    stack; on random terms it gives what the recursive walks gave, and
    returns a subterm it does not change as the same object."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_act_matches_the_recursive_walk(self, seed):
        rng = random.Random(seed)
        t, p = random_term(rng, SIG_FULL, depth=4), random_perm(rng)
        assert act(p, t) == reference_act(p, t)
        for u in nodes(t):
            if is_ground(u) and atoms_of(u).isdisjoint(p.support()):
                assert act(p, u) is u

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_substitution_matches_the_recursive_walk(self, seed):
        rng = random.Random(seed)
        t = random_term(rng, SIG_FULL, depth=4)
        bindings = {x: random_term(rng, SIG_FULL, depth=2) for x in VARS if rng.random() < 0.5}
        sigma, bound = Substitution(bindings), bindings.keys()
        assert sigma(t) == reference_substitute(bindings, t)
        for u in nodes(t):
            out = sigma(u)
            if bound.isdisjoint(free_vars(u)):
                assert out is u
            elif not isinstance(u, Susp):
                # the children without a bound variable are shared by the rebuilt node
                for s, r in zip(children(u), children(out), strict=True):
                    assert r is s or not bound.isdisjoint(free_vars(s))

    def test_flatten_keeps_the_undeclared_symbol_error(self):
        """flatten asks the signature for the theory of every application
        it visits, so a symbol it does not declare raises, in flatten and in
        the checks that flatten their goals first."""
        sig = Signature({"*": Theory.AC})
        fa, ga = App("f", AtomTerm(a)), App("g", AtomTerm(a))
        with pytest.raises(UndeclaredSymbolError, match="undeclared function symbol: f"):
            flatten(sig, Abs(b, Tup((App("*", Tup((AtomTerm(a), AtomTerm(b)))), fa))))
        with pytest.raises(UndeclaredSymbolError):
            check_alpha_fixp(sig, FixpointContext(), fa, ga)
        with pytest.raises(UndeclaredSymbolError):
            check_alpha_fresh(sig, FreshnessContext(), fa, ga)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_equational_args_of_flat_terms_are_all_collected(seed):
    """flatten splices in the arguments of nested applications of an A or
    AC symbol, so on a flat term the top-level argument tuple of such an
    application is what a recursive collector finds below it."""
    t = flatten(SIG_FULL, random_term(random.Random(seed), SIG_FULL, depth=4))
    for u in nodes(t):
        if isinstance(u, App) and SIG_FULL.theory(u.symbol) in (Theory.A, Theory.AC):
            assert list(equational_args(u)) == reference_args(u.symbol, u.arg)


SIX = tuple(Atom(n) for n in "abcdef")
perms = st.lists(st.tuples(st.sampled_from(SIX), st.sampled_from(SIX)).filter(lambda p: p[0] != p[1]), max_size=5)


def permutation(pairs) -> Permutation:
    return Permutation(tuple(Swapping(x, y) for x, y in pairs))


@given(perms, perms, perms, perms, st.sets(st.sampled_from(SIX)), st.lists(perms, max_size=3))
def test_suspension_rules_give_the_canonical_verdicts(p, q, rho_swaps, pi, fresh, fixing):
    """eq-var and fix-var, evaluated pointwise under a pending renaming rho,
    against the formulas on the canonical permutation rho o q."""
    p, q, pi = permutation(p), permutation(q), permutation(pi)
    rho = Renaming()
    for x, y in rho_swaps:
        rho.swap(x, y)
    rho_q = rho.permutation().compose(q)
    disagree = rho_q.inverse().compose(p).support()
    assert rho.differ(p, q) == disagree

    fix_ctx = FixpointContext(frozenset((permutation(ps), X) for ps in fixing if ps))
    fresh_ctx = FreshnessContext(frozenset((x, X) for x in fresh))
    assert FIXPOINT._var(fix_ctx, p, q, rho, X) == (disagree <= fix_ctx.supp_of(X))
    assert FRESHNESS._var(fresh_ctx, p, q, rho, X) == all(fresh_ctx.holds(x, X) for x in disagree)
    fix_var = derive(FIXPOINT._fixp(SIG_PLAIN, fix_ctx, pi, Susp(q, X), rho, NameGenerator(), trace_root(None), None))
    assert fix_var == (pi.conjugate(rho_q.inverse()).support() <= fix_ctx.supp_of(X))
