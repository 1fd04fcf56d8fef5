import random

import pytest
from hypothesis import given, strategies as st

from nomfix import (
    Abs,
    Atom,
    AtomTerm,
    FixpointContext,
    FreshnessContext,
    NameGenerator,
    Permutation,
    Signature,
    Swapping,
    Theory,
    Tup,
    Var,
    act,
    check_alpha_fixp,
    check_alpha_fresh,
    check_fixp,
    flatten,
    ground_alpha_oracle,
    parse_perm,
    parse_term,
    term_size,
)
from nomfix import fixpoint, freshness
from nomfix.alpha import alpha, derive, trace_root
from nomfix.syntax import Renaming
from gen import ATOMS, SIG_FULL, random_fixp_context, random_fresh_context, random_perm, random_term

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y = Var("X"), Var("Y")
EMPTY = FixpointContext()
SIG0 = Signature(permissive=True)


def ctx(*entries):
    return FixpointContext(
        frozenset((parse_perm(p), Var(x)) for p, x in entries)
    )


class TestFixRules:
    def test_atom(self):
        assert check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("c"))
        assert not check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("a"))

    def test_suspension_conjugates(self):
        # the permutation is conjugated through the suspension before the
        # context is consulted
        assert check_fixp(SIG0, ctx(("(a c)", "X")), parse_perm("(a b)"), parse_term("(b c).X"))
        assert not check_fixp(SIG0, ctx(("(a b)", "X")), parse_perm("(a b)"), parse_term("(b c).X"))
        assert check_fixp(SIG0, ctx(("(a b)", "X")), parse_perm("(a b)"), parse_term("X"))
        assert not check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("X"))

    def test_abstraction_shields_its_binder(self):
        assert check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("[a] a"))
        assert check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("[a] [b] (a, b)"))
        assert not check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("[a] b"))

    def test_abstraction_over_suspension(self):
        # binding a atom does not excuse the variable underneath
        assert not check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("[a] X"))
        assert check_fixp(SIG0, ctx(("(a b)", "X")), parse_perm("(a b)"), parse_term("[c] X"))

    def test_tuple_and_application(self):
        assert check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("f((c, [a] a))"))
        assert not check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("f((c, a))"))

    def test_generated_atoms_in_inputs_are_avoided(self):
        # contexts produced by the solver contain generated atoms; fresh ones
        # drawn during checking must not collide with them
        g = Atom("#c0", gen_index=0)
        g2 = Atom("#c1", gen_index=1)
        context = FixpointContext(
            frozenset({(Permutation.swap(a, g), Var("W")), (Permutation.swap(g, g2), Var("W"))})
        )
        assert check_fixp(SIG0, context, Permutation.swap(a, g), parse_term("[b] W"))


class TestAlphaFixp:
    def test_abstraction_rename(self):
        assert check_alpha_fixp(SIG0, EMPTY, parse_term("[a] a"), parse_term("[b] b"))
        assert not check_alpha_fixp(SIG0, EMPTY, parse_term("[a] b"), parse_term("[b] a"))

    def test_suspensions_same_variable(self):
        s, t = parse_term("(a b).X"), parse_term("X")
        assert check_alpha_fixp(SIG0, ctx(("(a b)", "X")), s, t)
        assert not check_alpha_fixp(SIG0, EMPTY, s, t)
        assert not check_alpha_fixp(SIG0, EMPTY, parse_term("X"), parse_term("Y"))

    def test_three_cycle_context_covers_its_support(self):
        # the context fixes X with a 3-cycle; the pair of swapped atoms is
        # inside its support so the equality is derivable
        assert check_alpha_fixp(SIG0, ctx(("(a b)(b c)", "X")), parse_term("(a b).X"), parse_term("X"))


class TestEquational:
    sigC = Signature({"xor": Theory.C, "g": Theory.NONE})
    sigAC = Signature({"xor": Theory.AC, "g": Theory.NONE})

    def test_commutative_pair_fixed_by_swap(self):
        sig = Signature({"+": Theory.C})
        assert check_fixp(sig, EMPTY, parse_perm("(a b)"), parse_term("+(a, b)", sig))
        assert not check_fixp(sig, EMPTY, parse_perm("(a c)"), parse_term("+(a, b)", sig))

    def test_three_cycle_needs_associativity(self):
        t = parse_term("xor(xor(g(a), g(b)), g(c))", self.sigC)
        p = parse_perm("(a b)(b c)")
        assert not check_fixp(self.sigC, EMPTY, p, t)
        assert check_fixp(self.sigAC, EMPTY, p, flatten(self.sigAC, t))

    def test_quantified_disjunction(self):
        sig = Signature(
            {"or": Theory.AC, "forall": Theory.NONE, "eq": Theory.NONE, "lt": Theory.NONE}
        )
        s = parse_term("forall([a] or(or(eq((X, a)), lt((a, X))), lt((X, a))))", sig)
        t = parse_term("forall([b] or(or(eq((X, b)), lt((b, X))), lt((X, b))))", sig)
        assert check_alpha_fixp(sig, ctx(("(a b)", "X")), s, t)
        assert not check_alpha_fixp(sig, EMPTY, s, t)

    def test_associative_is_positional(self):
        sig = Signature({"cat": Theory.A})
        s = parse_term("cat(a, cat(b, c))", sig)
        assert check_alpha_fixp(sig, EMPTY, s, parse_term("cat(cat(a, b), c)", sig))
        assert not check_alpha_fixp(sig, EMPTY, s, parse_term("cat(b, cat(a, c))", sig))


class TestProperties:
    def test_fix_iff_moved_term_equal(self, rng):
        # pi fixes t exactly when pi.t is equivalent to t
        for _ in range(400):
            context = random_fixp_context(rng)
            p = random_perm(rng)
            t = flatten(SIG_FULL, random_term(rng, SIG_FULL))
            assert check_fixp(SIG_FULL, context, p, t) == check_alpha_fixp(
                SIG_FULL, context, act(p, t), t
            )

    def test_equivalence_laws_random(self, rng):
        for _ in range(150):
            context = random_fixp_context(rng)
            s = random_term(rng, SIG_FULL)
            t = random_term(rng, SIG_FULL)
            assert check_alpha_fixp(SIG_FULL, context, s, s)
            assert check_alpha_fixp(SIG_FULL, context, s, t) == check_alpha_fixp(
                SIG_FULL, context, t, s
            )

    def test_equivariance_random(self, rng):
        for _ in range(200):
            context = random_fixp_context(rng)
            rho = random_perm(rng)
            s = random_term(rng, SIG_FULL)
            t = act(random_perm(rng), s) if rng.random() < 0.5 else random_term(rng, SIG_FULL)
            assert check_alpha_fixp(SIG_FULL, context, s, t) == check_alpha_fixp(
                SIG_FULL, context, act(rho, s), act(rho, t)
            )

    def test_traces(self):
        trace = []
        check_fixp(SIG0, EMPTY, parse_perm("(a b)"), parse_term("[a] a"), trace=trace)
        assert trace[0].ok and trace[0].rule == "fix-abs"


def abstract(binders, body):
    for x in reversed(binders):
        body = Abs(x, body)
    return body


class TestPendingRenaming:
    """The engines carry the renaming of a binder down the other side's body
    instead of rebuilding that body."""

    def test_renamed_binders_rebuild_no_term(self, monkeypatch):
        # [x0]...[x29](x_o0, ..., x_o29, z) against the same term over other binders
        rng = random.Random(7)
        xs, ys = [Atom(f"x{i}") for i in range(30)], [Atom(f"y{i}") for i in range(30)]
        order = rng.sample(range(30), 30)
        s = abstract(xs, Tup(tuple(AtomTerm(xs[i]) for i in order) + (AtomTerm(Atom("z")),)))
        t = abstract(ys, Tup(tuple(AtomTerm(ys[i]) for i in order) + (AtomTerm(Atom("z")),)))
        leaves = [AtomTerm(ys[i]) for i in order]
        leaves[3], leaves[11] = leaves[11], leaves[3]
        bad = abstract(ys, Tup(tuple(leaves) + (AtomTerm(Atom("z")),)))
        calls = []

        def counted(*args):
            calls.append(args)
            return act(*args)

        monkeypatch.setattr("nomfix.alpha.act", counted)
        monkeypatch.setattr("nomfix.fixpoint.act", counted)
        for rhs, want in ((t, True), (bad, False)):
            assert ground_alpha_oracle(SIG0, s, rhs) == want
            assert check_alpha_fixp(SIG0, EMPTY, s, rhs) == want
            assert check_alpha_fresh(SIG0, FreshnessContext(), s, rhs) == want
        assert calls == []

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_binder_chains_agree_with_the_oracle(self, seed):
        # a ground body under k distinct binders, against the body renamed
        # consistently to other binders, or perturbed
        rng = random.Random(seed)
        k = rng.randint(1, 8)
        xs = rng.sample(ATOMS + tuple(Atom(f"p{i}") for i in range(8)), k)
        ys = rng.sample([Atom(f"q{i}") for i in range(8)] + [x for x in ATOMS if x not in xs], k)
        body = flatten(SIG_FULL, random_term(rng, SIG_FULL, depth=4, ground=True))
        renaming = Permutation(tuple(Swapping(x, y) for x, y in zip(xs, ys)))
        other = act(renaming, body)
        match rng.randrange(4):
            case 1:
                ys = ys[1:] + ys[:1]
            case 2:
                other = act(random_perm(rng), other)
            case 3:
                other = flatten(SIG_FULL, random_term(rng, SIG_FULL, depth=4, ground=True))
        s, t = abstract(xs, body), abstract(ys, other)
        want = ground_alpha_oracle(SIG_FULL, s, t)
        assert check_alpha_fixp(SIG_FULL, EMPTY, s, t) == want
        assert check_alpha_fresh(SIG_FULL, FreshnessContext(), s, t) == want

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_pending_renaming_reads_as_its_action(self, seed):
        # each engine, started with a pending renaming rho on the right-hand
        # term, derives what it derives on rho acted out, rule for rule and
        # with the same generated atoms, and leaves rho as it found it
        rng = random.Random(seed)
        rho = Renaming()
        for _ in range(rng.randint(1, 4)):
            rho.swap(*rng.sample(ATOMS, 2))
        image = dict(rho.image)
        fixp_ctx, fresh_ctx = random_fixp_context(rng), random_fresh_context(rng)
        s = flatten(SIG_FULL, random_term(rng, SIG_FULL))
        for _ in range(rng.randrange(3)):
            s = Abs(rng.choice(ATOMS), s)
        t = act(random_perm(rng), s) if rng.random() < 0.6 else flatten(SIG_FULL, random_term(rng, SIG_FULL))
        p, x = random_perm(rng), rng.choice(ATOMS)
        moved = act(rho.permutation(), t)

        def derivation(engine, head, judgement, lazy):
            trace = []
            node = trace_root(trace, head, judgement, moved)
            # the inputs hold no generated atoms, so a new generator avoids them
            ok = derive(engine(NameGenerator(), t if lazy else moved, rho if lazy else Renaming(), node))
            return ok, [n.record() for n in trace]

        engines = [
            (lambda gen, u, r, n: fixpoint._fixp(SIG_FULL, fixp_ctx, p, u, r, gen, n, None), p, "fix?"),
            (lambda gen, u, r, n: alpha(fixpoint._RULES, SIG_FULL, fixp_ctx, gen, s, u, r, n), s, "=?"),
            (lambda gen, u, r, n: alpha(freshness._RULES, SIG_FULL, fresh_ctx, None, s, u, r, n), s, "=?"),
            (lambda gen, u, r, n: freshness._fresh(fresh_ctx, x, u, r, n), x, "fresh?"),
        ]
        for engine, head, judgement in engines:
            assert derivation(engine, head, judgement, True) == derivation(engine, head, judgement, False)
            assert rho.image == image and rho.preimage == {y: z for z, y in image.items()}


@pytest.mark.skipif(not __debug__, reason="the measure is asserted only with asserts on")
class TestMeasure:
    """The engine asserts a lexicographic termination measure, (term size,
    judgement kind), on every fix and alpha step."""

    def test_non_decreasing_measure_raises(self, monkeypatch):
        s, t = parse_term("(a, b)"), parse_term("(c, c)")
        # sized first, so an engine reading the memo past term_size would not raise
        assert term_size(s) == term_size(t) == 3
        # with every term of size 1 no premise can be below its conclusion
        monkeypatch.setattr("nomfix.fixpoint.term_size", lambda _: 1)
        with pytest.raises(AssertionError, match="did not decrease"):
            check_alpha_fixp(SIG0, EMPTY, s, s)
        with pytest.raises(AssertionError, match="did not decrease"):
            check_fixp(SIG0, EMPTY, parse_perm("(a b)"), t)

    def test_random_sweep_raises_nothing(self, rng):
        for _ in range(300):
            context = random_fixp_context(rng)
            s = random_term(rng, SIG_FULL)
            t = act(random_perm(rng), s) if rng.random() < 0.5 else random_term(rng, SIG_FULL)
            check_alpha_fixp(SIG_FULL, context, s, t)
            check_fixp(SIG_FULL, context, random_perm(rng), s)
