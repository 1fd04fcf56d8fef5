import io
import json
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from nomfix import (
    Abs,
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
    print_term,
    term_size,
    unify,
    verify_solution,
)
from nomfix.cli import main
from nomfix.unify import Solution, SimplStep, problem_measure
from certificate import check_tree, part_problems, solve, texts
from gen import SIG_C, SIG_PLAIN, VARS, random_perm, random_term

UNIFY = sys.modules["nomfix.unify"]
PRINTER = sys.modules["nomfix.printer"]

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
        assert sigma(Susp(idp, Y)) == parse_term("b")
        assert sigma(Susp(idp, X)) == parse_term("(a b)(b c).W")
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
        assert x == X and p == parse_perm("(a b)")
        assert res.solution.subst.is_identity()

    def test_swapped_variables_unify_by_instantiation(self):
        res = unify((parse_constraint("(a b).X =? Y"),))
        assert res.solved
        assert res.solution.subst(Susp(idp, X)) == parse_term("(a b).Y")

    def test_fix_constraint_distributes(self):
        res = unify((parse_constraint("(a b) fix? (X, [a] Y)"),))
        assert res.solved
        constrained = {x for _, x in res.solution.context.constraints}
        assert X in constrained

    def test_fix_app_c_acts_each_argument_once(self):
        # both alternatives share the moved arguments: (a b).f(a) and (a b).c
        sig = Signature({"+": Theory.C})
        c = parse_constraint("(a b) fix? +(f(a), c)", sig)
        rule, (left, right) = UNIFY._fix_rule(c, None, sig)
        assert rule == "fix-app-C"
        assert [print_term(e.lhs) for e in left] == ["f(b)", "c"]
        assert left[0].lhs is right[0].lhs and left[1].lhs is right[1].lhs

    def test_abstraction_same_binder(self):
        res = unify((parse_constraint("[a] X =? [a] f(b)"),))
        assert res.solved
        assert res.solution.subst(Susp(idp, X)) == parse_term("f(b)")

    def test_instantiation_moves_through_the_suspension(self):
        res = unify((parse_constraint("(a b).X =? f(a)"),))
        assert res.solved
        assert res.solution.subst(Susp(idp, X)) == parse_term("f(b)")

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
        # the search checks each step from the variables and weights its
        # constraints carry from their construction; built with none of
        # either, the measure is (0, ()) at every node
        assert __debug__
        for cls in (Eq, Fix):

            def built(self, *fields, init=cls.__init__):
                init(self, *fields)
                UNIFY._Constraint._vars.__set__(self, frozenset())
                UNIFY._Constraint._weight.__set__(self, 0)

            monkeypatch.setattr(cls, "__init__", built)

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
        # the measure is compared as a tuple: a descending sequence is the
        # multiset, and a strict prefix is smaller
        assert (1, (2, 2, 2)) < (1, (3,))
        assert (1, (2,)) < (1, (2, 1))
        assert (1, (9, 9)) < (2, (1,))
        assert not (1, (2,)) < (1, (2,))
        assert not (1, (3,)) < (1, (2,))


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


def weighing(w):
    """A constraint of weight w: f^(w-1)(a) =? f^(w-1)(a), or a primitive
    fixed-point constraint for 0."""
    if not w:
        return Fix(parse_perm("(a b)"), Susp(idp, X))
    t = parse_term("a")
    for _ in range(w - 1):
        t = App("f", t)
    return Eq(t, t)


class TestIncrementalState:
    """The search keeps each problem as it goes, in a worklist and a variable
    index, and checks each step's decrease of the measure from the step."""

    @staticmethod
    def check_every_node(mp):
        # wraps expand, which the search calls once at every node; returns
        # the problems it reached, in search order
        seen = []
        expand = UNIFY.expand

        def checked(state, *args):
            pr = state.problem()
            before = problem_measure(pr)
            assert len(state.occ) == before[0]
            seen.append(pr)
            children = expand(state, *args)
            for child, step in children:
                after = problem_measure(child.problem())
                assert len(child.occ) == after[0]
                assert UNIFY._step_decreases(step, before[0], after[0]) == (after < before)
            return children

        mp.setattr(UNIFY, "expand", checked)
        return seen

    # no deadline: some seeds draw a C problem with a large search tree, and
    # this check replays all of it.  Seed 4948 took 400-475 ms, and seed
    # 3314468 took 3.5-4.6 s (385 ms in c_unify and 1.4 s in check_tree),
    # against Hypothesis's 200 ms default (Python 3.11.7, 2-vCPU VM).
    @settings(deadline=None)
    @example(seed=4948)
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
            cres = solve(SIG_C, cpr)
            check_tree(SIG_C, cpr, cres.tree)
            assert part_problems(SIG_C, cpr, cres) == [texts(p) for p in seen]

    @given(st.integers(0, 5), st.lists(st.integers(0, 5), max_size=4), st.integers(0, 3), st.integers(0, 3))
    def test_step_check_is_the_multiset_order(self, consumed, produced, count_before, count_after):
        # the check compares one consumed weight with the produced ones; it
        # must decide as the tuple order does on the measures of the step's
        # constraints, the weights it leaves alone cancelling out
        step = SimplStep("rule", weighing(consumed), tuple(map(weighing, produced)))
        assert [c._weight for c in (step.consumed, *step.produced)] == [consumed, *produced]
        after = count_after, problem_measure(step.produced)[1]
        before = count_before, problem_measure((step.consumed,))[1]
        assert UNIFY._step_decreases(step, count_before, count_after) == (after < before)

    def test_instantiation_must_remove_a_variable(self):
        # an instantiation adds no constraint and removes its variable; one
        # that left the count as it was is rejected, whatever it consumed
        step = SimplStep("eq-inst1", parse_constraint("X =? f(a)"), (), (X, parse_term("f(a)")))
        assert UNIFY._step_decreases(step, 1, 0)
        assert not UNIFY._step_decreases(step, 1, 1)
        assert not UNIFY._step_decreases(step, 1, 2)

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

    def test_chain_solution_prints_in_linear_work(self, monkeypatch):
        # each binding of a chain's solution holds the next one's term, which
        # bindings() prints once, and so do print_subst and repr of its
        # substitution: the nodes each lists at most about double when the
        # chain doubles, where printing each binding whole grows them four
        # times
        counts = []
        listed = PRINTER._listed

        def counted(*args):
            counts[-1] += 1
            return listed(*args)

        monkeypatch.setattr(PRINTER, "_listed", counted)
        for n in (200, 400):
            solution = unify(chain(n)).solution
            for show in (Solution.bindings, lambda sol: PRINTER.print_subst(sol.subst), lambda sol: repr(sol.subst)):
                counts.append(0)
                show(solution)
        assert all(later <= 2.2 * first for first, later in zip(counts[:3], counts[3:])), counts

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bindings_print_each_term_whole(self, seed):
        # the memo of shared bindings changes no text: bindings() is every
        # binding printed on its own, in name order.  X =? s, Y =? t, Z =? u,
        # each right side over the later variables only, always solves, and
        # the bindings share what the later ones are bound to
        rng = random.Random(seed)
        triangle = tuple(Eq(Susp(idp, x), random_term(rng, SIG_PLAIN, variables=VARS[i + 1:], ground=x is VARS[-1]))
                         for i, x in enumerate(VARS))
        solutions = [unify(triangle).solution]
        res = unify(random_problem(rng, SIG_PLAIN))
        solutions += [res.solution] if res.solved else []
        solutions += c_unify(random_problem(rng, SIG_C), SIG_C).solutions
        for sol in solutions:
            assert sol.bindings() == sorted((x.name, print_term(t)) for x, t in sol.subst.bindings.items())

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_constraints_carry_their_measure_data(self, seed):
        # a constraint's weight and variables, set when it is built, are
        # those the measure reads off its terms: the larger side's size of
        # an equation, 0 for a primitive fixed-point constraint and else its
        # target's size, and its terms' variables; checked on random
        # problems and on every constraint their search builds
        rng = random.Random(seed)
        pr = random_problem(rng, SIG_PLAIN)
        cons = list(pr)
        for step in unify(pr).steps:
            cons += (step.consumed, *step.produced)
        for c in cons:
            weight, xs = self.measure_data(c)
            assert (c._weight, c._vars) == (weight, xs)
            assert problem_measure((c,)) == (len(xs), (weight,) if weight else ())
        data = list(map(self.measure_data, pr))
        weights = tuple(sorted((w for w, _ in data if w), reverse=True))
        assert problem_measure(pr) == (len(frozenset().union(*(xs for _, xs in data))), weights)

    @staticmethod
    def measure_data(c):
        """c's weight and variables, computed from its terms."""
        if isinstance(c, Eq):
            return max(term_size(c.lhs), term_size(c.rhs)), free_vars(c.lhs) | free_vars(c.rhs)
        primitive = isinstance(c.target, Susp) and not c.target.perm.swappings
        return 0 if primitive else term_size(c.target), free_vars(c.target)


class TestSearchSize:
    """Step counts recorded before the search steps were made cheaper: a
    faster step must come from the same search, not a shorter one."""

    @staticmethod
    def problems(n):
        xs = [Susp(idp, Var(f"X{i}")) for i in range(n + 1)]
        plain = chain(n)
        return {
            "plain": plain,
            "abs": tuple(Eq(Abs(a, xs[i]), Abs(b, App("f", xs[i + 1]))) for i in range(n)),
            "occurs": plain + (Eq(xs[n], App("f", Tup((xs[0], parse_term("a"))))),),
        }

    @pytest.mark.parametrize(
        "n,plain,abs_,occurs", [(1, 1, 3, 1), (10, 10, 130, 10), (100, 100, 10300, 100)]
    )
    def test_steps_on_chains(self, n, plain, abs_, occurs):
        got = {name: unify(pr) for name, pr in self.problems(n).items()}
        assert got["plain"].solved and got["abs"].solved and got["occurs"].witness_kind == "occurs"
        assert {name: len(res.steps) for name, res in got.items()} == {
            "plain": plain, "abs": abs_, "occurs": occurs}


class TestCyclicChain:
    """A cycle of n shallow equations, X0 =? f((X1, a)) ... X(n-1) =? f((X0, a)),
    grows a binding three levels per equation while it is solved, past
    Python's recursion limit at n = 201.  Substitution keeps its own stack,
    so the search reports the occurs failure instead of crashing."""

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("n", [101, 201])
    def test_reports_occurs(self, capsys, monkeypatch, n, mode):
        eqs = [f"X{i} =? f((X{(i + 1) % n}, a))" for i in range(n)]
        monkeypatch.setattr("sys.stdin", io.StringIO(",\n".join(eqs)))
        code = main(["unify", "-", *mode])
        out = capsys.readouterr()
        assert code == 1 and out.err == ""
        if mode:
            payload = json.loads(out.out)
            assert payload["status"] == "unsolvable" and payload["witness"]["kind"] == "occurs"
        else:
            assert out.out.startswith(f"unsolvable (occurs): X{n - 1} =? f(")

    @staticmethod
    def unit_cycle(n):
        return [f"X{i} =? f(X{(i + 1) % n})" for i in range(n)]

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_long_unit_cycle_reports_occurs(self, n):
        """On Xi =? f(X(i+1 mod n)) every binding rebuilds the last equation
        one level deeper, and its size and variables are set as it is
        built, so the measure and the occurs check walk nothing."""
        res = unify(tuple(map(parse_constraint, self.unit_cycle(n))))
        assert res.status == "unsolvable" and res.witness_kind == "occurs"
        last = Susp(idp, Var(f"X{n - 1}"))
        assert res.witness.lhs == last
        assert term_size(res.witness.rhs) == n + 1 and free_vars(res.witness.rhs) == {last.var}

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_long_unit_cycle_reports_occurs_from_the_command_line(self, capsys, monkeypatch, n):
        monkeypatch.setattr("sys.stdin", io.StringIO(",\n".join(self.unit_cycle(n))))
        code = main(["unify", "-"])
        out = capsys.readouterr()
        assert code == 1 and out.err == ""
        assert out.out == f"unsolvable (occurs): X{n - 1} =? " + "f(" * n + f"X{n - 1}" + ")" * n + "\n"

    def test_substitution_rebuilds_any_depth(self):
        # 5,000 levels of every node kind, each with a bound variable; the
        # variables are memoised level by level as the term is built, so
        # that only Substitution's own walk goes deep
        t, want = Susp(Permutation.swap(a, b), X), "(b, c)"
        for i in range(5000):
            t = (Abs(a, t), App("f", t), Tup((t, Susp(idp, Y))))[i % 3]
            want = (f"[a] {want}", f"f({want})", f"({want}, c)")[i % 3]
            free_vars(t)
        got = Substitution({X: parse_term("(a, c)"), Y: parse_term("c")})(t)
        assert print_term(got) == want


class TestLazyConstraints:
    def test_building_does_not_walk_deep_terms(self):
        # a constraint's variables and weight are read off its terms', which
        # they carry from their own construction: building constraints on a
        # term 5000 levels deep makes the calls it makes on f(a), and a walk
        # would make more, or recurse through all 5000 levels
        perm, shallow = parse_perm("(a b)"), Eq(parse_term("f(X)"), parse_term("a"))

        def calls(t):
            seen, profiler = [], sys.getprofile()
            sys.setprofile(lambda frame, event, arg: seen.append((event, frame.f_code, getattr(arg, "__name__", None))))
            try:
                built = Eq(t, t), Fix(perm, t), Eq(t, shallow.lhs)
            finally:
                sys.setprofile(profiler)
            return seen, built

        deep = parse_term("f(" * 5000 + "a" + ")" * 5000)
        (seen, (eq, fix, mixed)), (small, _) = calls(deep), calls(parse_term("f(a)"))
        assert seen == small
        assert shallow._vars == {X} and shallow._weight == 2
        assert [c._weight for c in (eq, fix, mixed)] == [5001, 5001, 5001]
        assert [c._vars for c in (eq, fix, mixed)] == [frozenset(), frozenset(), {X}]


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
                    assert once == sigma(once)


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
            assert last == parse_term("a")
            t = inner
        assert isinstance(t, Susp) and t.var == xs[n]


class TestMatch:
    def test_rigid_side_never_instantiated(self):
        res = match((Eq(parse_term("X"), parse_term("f(Y)")),), rigid={Y})
        assert res.solved
        assert res.solution.subst(Susp(idp, X)) == parse_term("f(Y)")
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
