import pytest

from nomfix import (
    Atom,
    Eq,
    Fix,
    FixpointContext,
    Permutation,
    Signature,
    Substitution,
    Susp,
    TermPool,
    Theory,
    Var,
    act,
    check_alpha_fixp,
    check_alpha_fresh,
    completeness_check,
    c_unify,
    enumerate_ground_substs,
    enumerate_terms,
    FreshnessContext,
    ground_alpha_oracle,
    is_ground,
    parse_constraint,
    parse_perm,
    parse_term,
    unify,
    verify_solution,
)
from nomfix import print_term
from nomfix.unify import Solution
from gen import SIG_CLASSES, random_perm, random_term

a, b = Atom("a"), Atom("b")
X = Var("X")
SIG0 = Signature(permissive=True)


class TestOracleCases:
    def test_plain_alpha(self):
        assert ground_alpha_oracle(SIG0, parse_term("[a] a"), parse_term("[b] b"))
        assert not ground_alpha_oracle(SIG0, parse_term("[a] b"), parse_term("[b] a"))
        assert ground_alpha_oracle(SIG0, parse_term("[a] [b] (a, b)"), parse_term("[b] [a] (b, a)"))

    def test_shadowing(self):
        assert ground_alpha_oracle(SIG0, parse_term("[a] [a] a"), parse_term("[b] [c] c"))
        assert not ground_alpha_oracle(SIG0, parse_term("[a] [a] a"), parse_term("[b] [c] b"))

    def test_free_atoms_must_match(self):
        assert not ground_alpha_oracle(SIG0, parse_term("[a] b"), parse_term("[c] d"))
        assert ground_alpha_oracle(SIG0, parse_term("[a] b"), parse_term("[c] b"))

    def test_theories(self):
        sig = Signature({"+": Theory.C, "*": Theory.AC, "cat": Theory.A})
        assert ground_alpha_oracle(sig, parse_term("+(a, b)", sig), parse_term("+(b, a)", sig))
        assert ground_alpha_oracle(
            sig, parse_term("*(*(a, b), c)", sig), parse_term("*(c, *(b, a))", sig)
        )
        assert ground_alpha_oracle(
            sig, parse_term("cat(a, cat(b, c))", sig), parse_term("cat(cat(a, b), c)", sig)
        )
        assert not ground_alpha_oracle(
            sig, parse_term("cat(a, b)", sig), parse_term("cat(b, a)", sig)
        )

    def test_binders_interact_with_commutativity(self):
        sig = Signature({"+": Theory.C})
        assert ground_alpha_oracle(sig, parse_term("[a] +(a, b)", sig), parse_term("[c] +(b, c)", sig))
        assert not ground_alpha_oracle(sig, parse_term("[a] +(a, b)", sig), parse_term("[b] +(b, a)", sig))

    def test_rejects_open_terms(self):
        with pytest.raises(ValueError):
            ground_alpha_oracle(SIG0, parse_term("X"), parse_term("X"))


class TestEnumeration:
    def test_small_pool_contents(self):
        pool = TermPool(atoms=(a, b), signature=Signature({"f": Theory.NONE}), max_depth=1)
        terms = enumerate_terms(pool)
        rendered = {print_term(t) for t in terms}
        assert {"a", "b", "f(a)", "f(b)", "[a] a", "[a] b", "[b] a", "[b] b", "(a, b)"} <= rendered
        # depth-1 pool over two atoms and one unary symbol: 2 atoms, 4
        # abstractions, 2 applications, 4 pairs
        assert len(terms) == 12

    def test_deterministic_and_duplicate_free(self):
        pool = TermPool(atoms=(a, b), signature=Signature({"+": Theory.C}), max_depth=1)
        once, twice = enumerate_terms(pool), enumerate_terms(pool)
        assert once == twice
        assert len(once) == len(set(once))

    def test_ground_substs_cover_the_product(self):
        pool = TermPool(atoms=(a, b), max_depth=0)
        substs = list(enumerate_ground_substs([X, Var("Y")], pool))
        assert len(substs) == 4  # two ground terms, two variables
        assert all(is_ground(s(Susp(Permutation.identity(), X))) for s in substs)


class TestAgreement:
    def test_oracle_matches_engines_on_ground_terms(self, rng):
        for name, sig in SIG_CLASSES.items():
            for _ in range(150):
                s = random_term(rng, sig, depth=3, ground=True)
                t = act(random_perm(rng), s) if rng.random() < 0.5 else random_term(
                    rng, sig, depth=3, ground=True
                )
                want = ground_alpha_oracle(sig, s, t)
                assert want == check_alpha_fixp(sig, FixpointContext(), s, t), (name, s, t)
                assert want == check_alpha_fresh(sig, FreshnessContext(), s, t), (name, s, t)


class TestVerification:
    def test_wrong_substitution_rejected(self):
        pr = (Eq(parse_term("f(X)"), parse_term("f(a)")),)
        good = Solution(FixpointContext(), Substitution({X: parse_term("a")}))
        bad = Solution(FixpointContext(), Substitution({X: parse_term("b")}))
        assert verify_solution(SIG0, pr, good)
        assert not verify_solution(SIG0, pr, bad)

    def test_context_constraints_checked(self):
        pr = (Eq(parse_term("(a b).X"), parse_term("X")),)
        res = unify(pr)
        assert verify_solution(SIG0, pr, res.solution)
        stripped = Solution(FixpointContext(), res.solution.subst)
        assert not verify_solution(SIG0, pr, stripped)

    def test_unfixed_target_rejected(self):
        pr = (Fix(parse_perm("(a b)"), parse_term("X")),)
        assert not verify_solution(SIG0, pr, Solution(FixpointContext(), Substitution({X: parse_term("a")})))
        assert verify_solution(SIG0, pr, Solution(FixpointContext(), Substitution({X: parse_term("f(c)")})))

    def test_non_idempotent_rejected(self):
        pr = (Eq(parse_term("X"), parse_term("X")),)
        loopy = Solution(FixpointContext(), Substitution({X: parse_term("f(X)")}))
        assert not verify_solution(SIG0, pr, loopy)


class TestCompleteness:
    def test_a_dropped_solution_is_reported_missed(self):
        # +((a b).X, a) =? +(Y, X) has two incomparable solutions, each
        # covering ground solutions the other misses: over the depth-1 pool
        # on a and b, {(a b) fix X} |- {Y -> a} covers four, {} |- {X -> a,
        # Y -> b} one
        sig = Signature({"+": Theory.C})
        pr = (parse_constraint("+((a b).X, a) =? +(Y, X)", sig),)
        pool = TermPool(atoms=(a, b), signature=sig, max_depth=1)
        fixed, flat = c_unify(pr, sig).solutions
        assert completeness_check(sig, pr, [fixed, flat], pool) == (5, 5, [])
        for kept, missed in ((fixed, ["{X -> a, Y -> b}"]),
                             (flat, ["{X -> [a] a, Y -> a}", "{X -> [b] b, Y -> a}",
                                     "{X -> +(a, b), Y -> a}", "{X -> +(b, a), Y -> a}"])):
            found, covered, deltas = completeness_check(sig, pr, [kept], pool)
            assert (found, covered, list(map(repr, deltas))) == (5, 5 - len(missed), missed)
