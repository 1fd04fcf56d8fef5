import pytest

from nomfix import (
    Eq,
    Permutation,
    Signature,
    Susp,
    Theory,
    Var,
    c_unify,
    is_more_general,
    parse_constraint,
    parse_perm,
    parse_term,
    same_term,
    verify_solution,
)
from gen import SIG_C, random_term

X, Y = Var("X"), Var("Y")
idp = Permutation.identity()
SIG = Signature({"+": Theory.C, "f": Theory.NONE})


class TestTwoSolutions:
    """+((a b).X, a) =? +(Y, X) has exactly two incomparable solutions."""

    def solve(self, **kw):
        pr = (parse_constraint("+((a b).X, a) =? +(Y, X)", SIG),)
        return pr, c_unify(pr, SIG, **kw)

    def test_exactly_two(self):
        pr, res = self.solve()
        assert res.solved and len(res.solutions) == 2
        flat, constrained = sorted(res.solutions, key=lambda s: len(s.context.constraints))
        assert flat.context.constraints == frozenset()
        assert same_term(flat.subst(Susp(idp, X)), parse_term("a"))
        assert same_term(flat.subst(Susp(idp, Y)), parse_term("b"))
        ((p, x),) = constrained.context.constraints
        assert x == X and p.same_action(parse_perm("(a b)"))
        assert same_term(constrained.subst(Susp(idp, Y)), parse_term("a"))
        assert X not in constrained.subst.domain()

    def test_both_verify_and_are_incomparable(self):
        pr, res = self.solve()
        s1, s2 = res.solutions
        assert verify_solution(SIG, pr, s1)
        assert verify_solution(SIG, pr, s2)
        assert not is_more_general(s1, s2, [X, Y], SIG)
        assert not is_more_general(s2, s1, [X, Y], SIG)

    def test_dedup_keeps_both(self):
        _, res = self.solve(dedup=True)
        assert len(res.solutions) == 2


class TestFixConstraintSolution:
    def test_swap_against_itself(self):
        pr = (parse_constraint("(a b).X =? X", SIG),)
        res = c_unify(pr, SIG)
        assert res.solved and len(res.solutions) == 1
        sol = res.solutions[0]
        ((p, x),) = sol.context.constraints
        assert x == X and p.same_action(parse_perm("(a b)"))
        assert sol.subst.is_identity()

    def test_commutative_fix_branches(self):
        # (a b) fixes X + Y either componentwise or by crossing the arguments
        pr = (parse_constraint("(a b) fix? +(X, Y)", SIG),)
        res = c_unify(pr, SIG)
        assert res.solved
        assert len(res.solutions) >= 2
        for sol in res.solutions:
            assert verify_solution(SIG, pr, sol)

    def test_crossed_branch_is_the_only_solution(self):
        # the componentwise branch clashes on a =? b, so only the crossed
        # alignment survives
        pr = (parse_constraint("+(a, X) =? +(b, Y)", SIG),)
        res = c_unify(pr, SIG)
        assert len(res.solutions) == 1
        sol = res.solutions[0]
        assert same_term(sol.subst(Susp(idp, X)), parse_term("b"))
        assert same_term(sol.subst(Susp(idp, Y)), parse_term("a"))


class TestDedup:
    def test_duplicate_branches_collapse(self):
        pr = (parse_constraint("+(X, Y) =? +(a, a)", SIG),)
        plain = c_unify(pr, SIG)
        assert len(plain.solutions) == 2
        deduped = c_unify(pr, SIG, dedup=True)
        assert len(deduped.solutions) == 1


class TestValidation:
    def test_associative_symbols_rejected(self):
        sig = Signature({"cat": Theory.A})
        with pytest.raises(ValueError):
            c_unify((parse_constraint("cat(a, b) =? cat(b, a)", sig),), sig)

    def test_ac_symbols_rejected(self):
        sig = Signature({"*": Theory.AC})
        with pytest.raises(ValueError):
            c_unify((parse_constraint("*(a, b) =? *(b, a)", sig),), sig)

    def test_c_symbol_needs_pairs(self):
        sig = Signature({"+": Theory.C})
        from nomfix import App, atom

        with pytest.raises(ValueError):
            c_unify((Eq(App("+", atom("a")), App("+", atom("b"))),), sig)


class TestTree:
    def test_branching_structure(self):
        pr = (parse_constraint("+(a, X) =? +(b, Y)", SIG),)
        res = c_unify(pr, SIG)
        assert res.tree.rule == "eq-app-C"
        assert len(res.tree.children) == 2
        assert res.leaves >= 2
        d = res.tree.to_dict()
        assert d["rule"] == "eq-app-C" and len(d["children"]) == 2

    def test_unsolvable_leaves_have_kinds(self):
        pr = (parse_constraint("+(a, a) =? +(b, b)", SIG),)
        res = c_unify(pr, SIG)
        assert not res.solved and res.solutions == []
        kinds = set()
        stack = [res.tree]
        while stack:
            n = stack.pop()
            if n.leaf_kind:
                kinds.add(n.leaf_kind)
            stack.extend(n.children)
        assert kinds == {"clash"}


class TestSoundness:
    def test_random_solutions_verify(self, rng):
        solved = 0
        for _ in range(200):
            pr = tuple(
                Eq(random_term(rng, SIG_C, depth=2), random_term(rng, SIG_C, depth=2))
                for _ in range(rng.randrange(1, 3))
            )
            res = c_unify(pr, SIG_C)
            for sol in res.solutions:
                assert verify_solution(SIG_C, pr, sol)
            solved += res.solved
        assert solved > 20
