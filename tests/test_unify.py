import random
import sys

import pytest
from hypothesis import given, strategies as st

from nomfix import (
    App,
    Atom,
    Eq,
    Fix,
    FixpointContext,
    Permutation,
    Signature,
    Substitution,
    Susp,
    Theory,
    Tup,
    Var,
    c_unify,
    free_vars,
    is_more_general,
    match,
    parse_constraint,
    parse_perm,
    parse_term,
    same_term,
    unify,
    verify_solution,
)
from nomfix.unify import Solution, measure_decreases, problem_measure
from gen import SIG_C, SIG_PLAIN, random_perm, random_term

UNIFY = sys.modules["nomfix.unify"]

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y, W = Var("X"), Var("Y"), Var("W")
SIG0 = Signature(permissive=True)
idp = Permutation.identity()


class TestWorkedExample:
    """[a] f(X, a) =? [b] f((b c).W, (a c).Y) has the principal solution
    X -> (a b)(b c).W, Y -> b under two fixed-point constraints on W."""

    def solve(self):
        s = parse_term("[a] f((X, a))")
        t = parse_term("[b] f(((b c).W, (a c).Y))")
        return (Eq(s, t),), unify((Eq(s, t),))

    def test_solved_with_expected_substitution(self):
        pr, res = self.solve()
        assert res.solved
        sigma = res.solution.subst
        assert same_term(sigma(Susp(idp, Y)), parse_term("b"))
        assert same_term(sigma(Susp(idp, X)), parse_term("(a b)(b c).W"))
        assert sigma.domain() == {X, Y}

    def test_expected_context_shape(self):
        _, res = self.solve()
        cons = sorted(res.solution.context.constraints, key=lambda e: str(e[0]))
        assert [x for _, x in cons] == [W, W]
        # one constraint swaps 'a' with a generated atom, the other swaps two
        # generated atoms
        shapes = sorted(
            (sum(x.generated for x in p.support()), len(p.support())) for p, _ in cons
        )
        assert shapes == [(1, 2), (2, 2)]
        assert a in {x for p, _ in cons for x in p.support()}

    def test_solution_verifies(self):
        pr, res = self.solve()
        assert verify_solution(SIG0, pr, res.solution)

    def test_steps_are_recorded(self):
        _, res = self.solve()
        rules = [s.rule for s in res.steps]
        assert rules[0] == "eq-abs-rename"
        assert "eq-inst1" in rules and "eq-inst2" in rules


class TestOutcomes:
    def test_atom_equation(self):
        assert unify((Eq(parse_term("a"), parse_term("a")),)).solved
        res = unify((Eq(parse_term("a"), parse_term("b")),))
        assert res.status == "unsolvable" and res.witness_kind == "clash"

    def test_clash_of_symbols(self):
        res = unify((parse_constraint("f(a) =? g(a)"),))
        assert res.witness_kind == "clash"

    def test_occurs_check(self):
        res = unify((parse_constraint("X =? f(X)"),))
        assert res.witness_kind == "occurs"
        assert not res.solved

    def test_occurs_through_permutation(self):
        res = unify((parse_constraint("X =? f((a b).X)"),))
        assert res.witness_kind == "occurs"

    def test_fixpoint_inconsistency(self):
        res = unify((parse_constraint("(a b) fix? a"),))
        assert res.witness_kind == "fixpoint-inconsistency"

    def test_consistent_fix_atom(self):
        assert unify((parse_constraint("(a b) fix? c"),)).solved

    def test_same_variable_equation_yields_constraint(self):
        res = unify((parse_constraint("(a b).X =? X"),))
        assert res.solved
        ((p, x),) = res.solution.context.constraints
        assert x == X and p.same_action(parse_perm("(a b)"))
        assert res.solution.subst.is_identity()

    def test_swapped_variables_unify_by_instantiation(self):
        res = unify((parse_constraint("(a b).X =? Y"),))
        assert res.solved
        assert same_term(res.solution.subst(Susp(idp, X)), parse_term("(a b).Y"))

    def test_fix_constraint_distributes(self):
        res = unify((parse_constraint("(a b) fix? (X, [a] Y)"),))
        assert res.solved
        constrained = {x for _, x in res.solution.context.constraints}
        assert X in constrained

    def test_abstraction_same_binder(self):
        res = unify((parse_constraint("[a] X =? [a] f(b)"),))
        assert res.solved
        assert same_term(res.solution.subst(Susp(idp, X)), parse_term("f(b)"))

    def test_instantiation_moves_through_the_suspension(self):
        res = unify((parse_constraint("(a b).X =? f(a)"),))
        assert res.solved
        assert same_term(res.solution.subst(Susp(idp, X)), parse_term("f(b)"))

    def test_tuple_arity_clash(self):
        res = unify((parse_constraint("(a, b) =? (a, b, c)"),))
        assert res.witness_kind == "clash"

    def test_c_theory_rejected_here(self):
        sig = Signature({"+": Theory.C})
        with pytest.raises(ValueError):
            unify((parse_constraint("+(a, b) =? +(b, a)", sig),), sig=sig)


class TestMeasure:
    def test_measure_decreases_on_recorded_runs(self, rng):
        assert __debug__  # the drivers assert the decrease internally
        for _ in range(200):
            pr = tuple(
                Eq(random_term(rng, SIG_PLAIN), random_term(rng, SIG_PLAIN))
                for _ in range(rng.randrange(1, 3))
            )
            unify(pr)  # raises AssertionError on any violation

    @pytest.fixture
    def constant_measure(self, monkeypatch):
        # the search keeps the measure from each constraint's variables and
        # weight; with none of either it is (0, ()) at every node
        assert __debug__
        monkeypatch.setattr(UNIFY, "constraint_vars", lambda c: frozenset())
        monkeypatch.setattr(UNIFY, "_weight", lambda c: 0)

    def test_unify_asserts_the_measure(self, constant_measure):
        with pytest.raises(AssertionError):
            unify((parse_constraint("f(X) =? f(a)"),))

    def test_c_unify_asserts_the_measure(self, constant_measure):
        sig = Signature({"+": Theory.C})
        with pytest.raises(AssertionError):
            c_unify((parse_constraint("+(X, a) =? +(a, b)", sig),), sig)

    def test_is_more_general_asserts_the_measure(self, constant_measure):
        gen = Solution(FixpointContext(), Substitution({X: parse_term("f(Y)")}))
        inst = Solution(FixpointContext(), Substitution({X: parse_term("f(a)")}))
        with pytest.raises(AssertionError):
            is_more_general(gen, inst, [X])

    def test_multiset_ordering(self):
        assert measure_decreases((1, (3,)), (1, (2, 2, 2)))
        assert measure_decreases((1, (2, 1)), (1, (2,)))
        assert measure_decreases((2, (1,)), (1, (9, 9)))
        assert not measure_decreases((1, (2,)), (1, (2,)))
        assert not measure_decreases((1, (2,)), (1, (3,)))


def random_problem(rng, sig):
    """One to four equations and fixed-point constraints."""
    out = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.7:
            out.append(Eq(random_term(rng, sig, depth=2), random_term(rng, sig, depth=2)))
        else:
            out.append(Fix(random_perm(rng), random_term(rng, sig, depth=2)))
    return tuple(out)


def chain(n, forward=True):
    """X0 =? f(X1, a), ..., X(n-1) =? f(Xn, a); backwards, X(i+1) =? f(Xi, a),
    where each binding rewrites the next equation."""
    xs = [Susp(idp, Var(f"X{i}")) for i in range(n + 1)]
    a = parse_term("a")
    if forward:
        return tuple(Eq(xs[i], App("f", Tup((xs[i + 1], a)))) for i in range(n))
    return tuple(Eq(xs[i + 1], App("f", Tup((xs[i], a)))) for i in range(n))


class TestIncrementalState:
    """The search keeps each problem as it goes: a worklist, a variable index
    and the measure as counters updated by each step's delta."""

    @staticmethod
    def check_every_node(mp):
        # wraps expand, which the search calls once at every node; returns
        # the problems it reached, in search order
        seen = []
        expand = UNIFY.expand

        def checked(state, *args):
            pr = state.problem()
            before = problem_measure(pr)
            assert state.measure() == before
            seen.append(pr)
            children = expand(state, *args)
            for child, _ in children:
                after = problem_measure(child.problem())
                assert child.measure() == after
                assert measure_decreases(*child.step_measures()) == measure_decreases(before, after)
            return children

        mp.setattr(UNIFY, "expand", checked)
        return seen

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_kept_measure_is_the_measure_at_every_node(self, seed):
        assert __debug__
        rng = random.Random(seed)
        with pytest.MonkeyPatch.context() as mp:
            seen = self.check_every_node(mp)
            pr = random_problem(rng, SIG_PLAIN)
            res = unify(pr)
            assert seen[0] == pr and seen[-1] == res.normal_form
            if res.solved:
                vs = sorted(UNIFY.problem_vars(pr))
                images = [res.solution.subst(Susp(idp, x)) for x in vs]
                ground = Substitution({y: parse_term("c") for t in images for y in free_vars(t)})
                inst = Solution(FixpointContext(), Substitution({x: ground(t) for x, t in zip(vs, images)}))
                seen.clear()
                is_more_general(res.solution, inst, vs)
                is_more_general(inst, res.solution, vs)
                assert seen or not vs
            seen.clear()
            cpr = random_problem(rng, SIG_C)
            cres = c_unify(cpr, SIG_C)
            nodes, stack = [], [cres.tree]
            while stack:
                node = stack.pop()
                nodes.append(node.problem)
                stack.extend(node.children)
            assert nodes == seen

    @pytest.mark.parametrize("forward", [True, False])
    def test_chain_work_grows_linearly(self, monkeypatch, forward):
        # rule attempts, and substitution applications, through which a
        # binding rewrites a constraint, at most about double when the chain
        # doubles
        counts = {"rules": 0, "substitutions": 0}

        def count(owner, name, key):
            fn = getattr(owner, name)

            def counted(*args):
                counts[key] += 1
                return fn(*args)

            monkeypatch.setattr(owner, name, counted)

        count(UNIFY, "_eq_rule", "rules")
        count(UNIFY, "_fix_rule", "rules")
        count(Substitution, "__call__", "substitutions")
        seen = []
        for n in (100, 200, 400):
            counts.update(rules=0, substitutions=0)
            assert unify(chain(n, forward)).solved
            seen.append(dict(counts))
        for small, large in zip(seen, seen[1:]):
            for key in counts:
                assert large[key] <= 2.2 * small[key], seen


class TestSoundness:
    def test_random_solutions_verify(self, rng):
        solved = 0
        for _ in range(300):
            pr = tuple(
                Eq(random_term(rng, SIG_PLAIN), random_term(rng, SIG_PLAIN))
                for _ in range(rng.randrange(1, 3))
            )
            res = unify(pr)
            if res.solved:
                solved += 1
                assert verify_solution(SIG_PLAIN, pr, res.solution)
        assert solved > 30

    def test_idempotent_substitutions(self, rng):
        for _ in range(150):
            pr = (Eq(random_term(rng, SIG_PLAIN), random_term(rng, SIG_PLAIN)),)
            res = unify(pr)
            if res.solved:
                sigma = res.solution.subst
                for x in sigma.domain():
                    once = sigma(Susp(idp, x))
                    assert same_term(once, sigma(once))


class TestDeepChain:
    def test_two_hundred_equation_chain(self):
        n = 200
        xs = [Var(f"X{i}") for i in range(n + 1)]
        pr = tuple(
            Eq(Susp(idp, xs[i]), App("f", Tup((Susp(idp, xs[i + 1]), parse_term("a")))))
            for i in range(n)
        )
        res = unify(pr)
        assert res.solved
        t = res.solution.subst(Susp(idp, xs[0]))
        for _ in range(n):
            assert isinstance(t, App) and t.symbol == "f"
            inner, last = t.arg.items
            assert same_term(last, parse_term("a"))
            t = inner
        assert isinstance(t, Susp) and t.var == xs[n]


class TestMatch:
    def test_rigid_side_never_instantiated(self):
        res = match((Eq(parse_term("X"), parse_term("f(Y)")),), rigid={Y})
        assert res.solved
        assert same_term(res.solution.subst(Susp(idp, X)), parse_term("f(Y)"))
        assert Y not in res.solution.subst.domain()

    def test_rigid_failure(self):
        res = match((Eq(parse_term("f(a)"), parse_term("Y")),), rigid={Y})
        assert not res.solved and res.witness_kind == "rigid"

    def test_variable_split_enforced(self):
        with pytest.raises(ValueError):
            match((Eq(parse_term("Y"), parse_term("X")),), rigid={Y})


class TestOrdering:
    def test_generalization_chain(self):
        gen = Solution(FixpointContext(), Substitution({X: Susp(idp, Y)}))
        inst = Solution(FixpointContext(), Substitution({X: parse_term("a"), Y: parse_term("a")}))
        assert is_more_general(gen, inst, [X, Y])
        assert not is_more_general(inst, gen, [X, Y])
        assert is_more_general(gen, gen, [X, Y])

    def test_context_constrains_instances(self):
        constrained = Solution(
            FixpointContext(frozenset({(parse_perm("(a b)"), X)})), Substitution()
        )
        fits = Solution(FixpointContext(), Substitution({X: parse_term("c")}))
        breaks = Solution(FixpointContext(), Substitution({X: parse_term("a")}))
        assert is_more_general(constrained, fits, [X])
        assert not is_more_general(constrained, breaks, [X])

    def test_moderated_instance(self):
        # X -> (a b).Y subsumes X -> b, Y -> a
        gen = Solution(FixpointContext(), Substitution({X: parse_term("(a b).Y")}))
        inst = Solution(FixpointContext(), Substitution({X: parse_term("b"), Y: parse_term("a")}))
        assert is_more_general(gen, inst, [X])

    def test_computed_solutions_subsume_ground_instances(self, rng):
        checked = 0
        for _ in range(200):
            pr = (Eq(random_term(rng, SIG_PLAIN, depth=2), random_term(rng, SIG_PLAIN, depth=2)),)
            res = unify(pr)
            if not res.solved:
                continue
            vs = sorted(free_vars(pr[0].lhs) | free_vars(pr[0].rhs))
            if not vs:
                continue
            # build a ground instance of the computed solution
            inst = {}
            for x in vs:
                t = res.solution.subst(Susp(idp, x))
                ground = Substitution({y: parse_term("c") for y in free_vars(t)})(t)
                inst[x] = ground
            ground_sol = Solution(FixpointContext(), Substitution(inst))
            if not verify_solution(SIG_PLAIN, pr, ground_sol):
                continue
            checked += 1
            assert is_more_general(res.solution, ground_sol, vs)
        assert checked > 20
