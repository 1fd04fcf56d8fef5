import hashlib
import json
import random
import re
import sys
from heapq import heappop, heappush
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from certificate import check_tree, search_order, solve, texts
from nomfix import (
    Eq,
    Fix,
    FixpointContext,
    Permutation,
    Signature,
    Solution,
    Substitution,
    Susp,
    Theory,
    Var,
    c_unify,
    is_more_general,
    parse_constraint,
    parse_perm,
    parse_term,
    unify,
    verify_solution,
)
from nomfix.printer import print_perm, print_term
from nomfix.unify import problem_vars
from gen import SIG_C, random_perm, random_term
from nomfix.cli import main

UNIFY = sys.modules["nomfix.unify"]
CUNIFY = sys.modules["nomfix.cunify"]

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
        assert flat.subst(Susp(idp, X)) == parse_term("a")
        assert flat.subst(Susp(idp, Y)) == parse_term("b")
        ((p, x),) = constrained.context.constraints
        assert x == X and p == parse_perm("(a b)")
        assert constrained.subst(Susp(idp, Y)) == parse_term("a")
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
        assert x == X and p == parse_perm("(a b)")
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
        assert sol.subst(Susp(idp, X)) == parse_term("b")
        assert sol.subst(Susp(idp, Y)) == parse_term("a")


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
        root, *steps = res.tree
        assert root == {"id": 0, "parent": None, "rule": None, "problem": ["+(a, X) =? +(b, Y)"]}
        top = [r for r in steps if r["parent"] == 0]
        assert [r["rule"] for r in top] == ["eq-app-C", "eq-app-C"]
        assert [r["produced"] for r in top] == [["a =? b", "X =? Y"], ["a =? Y", "X =? b"]]
        assert res.leaves >= 2
        assert json.loads(json.dumps(res.tree)) == res.tree

    def test_unsolvable_leaves_have_kinds(self):
        pr = (parse_constraint("+(a, a) =? +(b, b)", SIG),)
        res = c_unify(pr, SIG)
        assert not res.solved and res.solutions == []
        outcomes = [r["outcome"] for r in res.tree if "outcome" in r]
        assert len(outcomes) == res.leaves and set(outcomes) == {"clash"}


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


def c_pairs(k):
    """k independent pairs +(Xi, Yi) =? +(ai, bi); each branches in two and
    both branches solve it, so 2^k leaves, every one a solution."""
    return tuple(parse_constraint(f"+(X{i}, Y{i}) =? +(a{i}, b{i})", SIG) for i in range(k))


def rotation(k):
    """k pairs whose kinds rotate: two solutions, one (the other branch
    clashes), and two equal ones that --dedup merges."""
    forms = ("+(X{i}, Y{i}) =? +(a{i}, b{i})", "+(X{i}, a{i}) =? +(b{i}, a{i})", "+(X{i}, X{i}) =? +(a{i}, a{i})")
    return tuple(parse_constraint(forms[i % 3].format(i=i), SIG) for i in range(k))


class TestSearchSize:
    """Node, leaf and solution counts recorded before the search steps were
    made cheaper: a faster step must come from the same search.  The node
    counts were recorded again when the search came to branch only once
    nothing else applies, with the leaf and solution counts kept: each
    pair's instantiations now run once above the splits, so the tree of k
    pairs has 6 * 2**k - 5 records, not (2k + 2) * 2**k - 1."""

    PAIRS = [6 * 2**k - 5 for k in range(1, 9)]  # tree records at k = 1..8: 7, 19, 43, ... 1531
    ROTATION = [(7, 2, 2), (17, 4, 2), (41, 8, 4), (89, 16, 8), (169, 32, 8), (361, 64, 16), (745, 128, 32),
                (1385, 256, 32)]  # (tree records, leaves, solutions) at k = 1..8
    DEDUP = [2, 2, 2, 4, 4, 4]  # solutions with --dedup at k = 1..6

    @pytest.mark.parametrize("k", range(1, 9))
    def test_independent_pairs(self, k):
        res = c_unify(c_pairs(k), SIG)
        assert (len(res.tree), res.leaves, len(res.solutions)) == (self.PAIRS[k - 1], 2**k, 2**k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rotating_pairs(self, k):
        res = c_unify(rotation(k), SIG)
        assert (len(res.tree), res.leaves, len(res.solutions)) == self.ROTATION[k - 1]
        if k <= len(self.DEDUP):
            assert len(c_unify(rotation(k), SIG, dedup=True).solutions) == self.DEDUP[k - 1]


def count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestKeyOnce:
    """A solution's bindings are printed once: c_unify sorts by its key, and
    the CLI prints the key or, with --json, the bindings, tree included,
    with the output of before."""

    # sha256 of `nomfix cunify` output on c_pairs(8) for each flag set: the
    # text ones recorded before the text was kept, the tree's again when the
    # search came to branch last, which left the output without it as it
    # was; the --json ones before key() and --json came to share one print
    OUTPUT = {
        (): "5fd6330e614dff3777d719b53133e78e5434d5a1671b8cd490238958691f6825",
        ("--tree",): "d7c1c5bc4dd01d85c66e2439947a60ce736a0ebe87df435761306e98319e7c42",
        ("--json",): "97e27c2db343c9873d4ce5c4924c098d41726c4388f6185b4a8e98d676a29d3f",
        ("--json", "--tree"): "3ea452d07c823ec733db5a9c862fe68afad9708ff789a84c3abcc6e20d047f1d",
    }

    @pytest.mark.parametrize("flags", list(OUTPUT))
    def test_one_print_term_per_binding_per_solution(self, monkeypatch, capsys, tmp_path, flags):
        path = tmp_path / "pairs.nom"
        path.write_text("sym + : C ;\n" + ",\n".join(map(str, c_pairs(8))) + "\n")
        # every print_term call but the tree's, which prints the steps'
        # constraints and bindings: so one per binding of each solution
        tree = {UNIFY.Eq.__str__.__code__, UNIFY.Fix.__str__.__code__, CUNIFY.tree_records.__code__}
        calls = []

        def counted(t, *args):
            if sys._getframe(1).f_code not in tree:
                calls.append(t)
            return print_term(t, *args)

        for module in (UNIFY, CUNIFY, sys.modules["nomfix.cli"], sys.modules["nomfix.printer"]):
            if hasattr(module, "print_term"):
                monkeypatch.setattr(module, "print_term", counted)
        assert main(["cunify", str(path), *flags]) == 0
        out = capsys.readouterr().out
        assert len(calls) == 2**8 * 16  # 2^8 solutions, each binding X0..X7 and Y0..Y7
        assert hashlib.sha256(out.encode()).hexdigest() == self.OUTPUT[flags]


class TestLazyTree:
    """The search keeps the leaves' chains of steps; the tree's records are
    read off them, without replaying a step, only when the tree is read."""

    def test_no_tree_work_unless_read(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, CUNIFY, "tree_records", counts)
        count_calls(monkeypatch, UNIFY._State, "problem", counts)
        res = c_unify(c_pairs(6), SIG)
        assert res.leaves == 2**6 and len(res.solutions) == 2**6
        assert counts == {"problem": res.leaves}
        records = res.tree
        assert counts == {"problem": res.leaves, "tree_records": 1}
        assert res.tree is records and counts["tree_records"] == 1
        assert sum("outcome" in r for r in records) == res.leaves

    @staticmethod
    def searched_problems(monkeypatch):
        # the problem at every node the search reaches, in search order
        seen = []
        expand = UNIFY.expand

        def recording(state, *args):
            seen.append(state.problem())
            return expand(state, *args)

        monkeypatch.setattr(UNIFY, "expand", recording)
        return seen

    @staticmethod
    def replayed_in_search_order(sig, pr, res):
        problems = check_tree(sig, pr, res.tree)
        return [texts(problems[i]) for i in search_order(res.tree)]

    def test_duplicate_constraints(self, monkeypatch):
        # the replay removes the first constraint equal to the consumed one:
        # one object twice, equal copies, and copies a binding rewrites
        seen = self.searched_problems(monkeypatch)
        branch = parse_constraint("+(X, a) =? +(b, Y)", SIG)
        copy = parse_constraint("+(X, a) =? +(b, Y)", SIG)
        bind = parse_constraint("X =? f(Y)", SIG)
        later = parse_constraint("Y =? c", SIG)
        fix = parse_constraint("(a b) fix? +(X, Y)", SIG)
        for pr in (
            (branch, bind, branch),
            (branch, copy, later, branch),
            (bind, fix, copy, bind, fix, later),
            (later, branch, later, fix),
        ):
            seen.clear()
            res = solve(SIG, pr)
            assert self.replayed_in_search_order(SIG, pr, res) == [texts(p) for p in seen]
            assert sum("outcome" in r for r in res.tree) == res.leaves

    def test_random_problems_with_duplicates(self, monkeypatch, rng):
        seen = self.searched_problems(monkeypatch)
        for _ in range(150):
            base = [
                Eq(random_term(rng, SIG_C, depth=2), random_term(rng, SIG_C, depth=2))
                for _ in range(rng.randrange(1, 3))
            ]
            pr = tuple(base + [rng.choice(base) for _ in range(rng.randrange(1, 3))])
            seen.clear()
            res = solve(SIG_C, pr)
            assert self.replayed_in_search_order(SIG_C, pr, res) == [texts(p) for p in seen]


def random_c_problem(rng):
    """One to three equations between random terms over f and a commutative
    +, some of them repeated, and sometimes a fixed-point constraint."""
    base = [Eq(random_term(rng, SIG_C, depth=2), random_term(rng, SIG_C, depth=2)) for _ in range(rng.randrange(1, 3))]
    pr = base + [rng.choice(base) for _ in range(rng.randrange(2))]
    if rng.random() < 0.3:
        pr.append(Fix(random_perm(rng), random_term(rng, SIG_C, depth=2)))
    return tuple(pr)


class TestCertificate:
    """Every c_unify derivation tree passes the independent checker of
    tests/certificate.py: each step consumes a constraint that is there and
    decreases the measure, and each leaf is a normal form with its outcome
    and, on success, a solution that verifies."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_c_problems(self, seed):
        rng = random.Random(seed)
        pr = random_c_problem(rng)
        res = solve(SIG_C, pr)
        check_tree(SIG_C, pr, res.tree)
        leaves = [r for r in res.tree if "outcome" in r]
        assert len(leaves) == res.leaves
        assert sorted(r["solution"] for r in leaves if "solution" in r) == sorted(s.key() for s in res.solutions)

    @pytest.mark.parametrize("text", ["", "a =? b", "(a b) fix? X"])
    def test_root_is_the_only_leaf(self, text):
        pr = (parse_constraint(text, SIG),) if text else ()
        res = solve(SIG, pr)
        (root,) = res.tree
        assert root["parent"] is None and root["problem"] == texts(pr)
        assert root["outcome"] == ("clash" if text == "a =? b" else "success")
        check_tree(SIG, pr, res.tree)

    # (record id, field, tampered value) in the tree of TAMPERED
    TAMPERS = {
        "absent consumed": (6, "consumed", "X =? d"),
        "dropped product": (5, "produced", ["X =? c"]),
        "no decrease": (1, "produced", ["(a b) fix? [c] +(c, X)"]),
        "wrong binding": (6, "binding", {"var": "X", "term": "d"}),
        "wrong outcome": (25, "outcome", "success"),
        "wrong solution": (9, "solution", "{} |- {X -> c, Y -> f(c)}"),
    }
    TAMPERED = ("+(X, Y) =? +(c, f(d))", "(a b) fix? [c] +(c, X)")

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_trees_are_rejected(self, tamper):
        pr = tuple(parse_constraint(c, SIG) for c in self.TAMPERED)
        res = solve(SIG, pr)
        check_tree(SIG, pr, res.tree)
        i, key, value = self.TAMPERS[tamper]
        records = [dict(r) for r in res.tree]
        assert key in records[i]
        records[i][key] = value
        with pytest.raises(AssertionError):
            check_tree(SIG, pr, records)


def first_step_expand(st, gen, sig=None, rigid=frozenset()):
    """The reference: the search's step choice before it came to branch
    last.  It takes the first constraint a non-instantiating rule applies
    to, branching on it if its rule branches, and instantiates only once no
    such rule applies."""
    while st.todo:
        k = heappop(st.todo)
        c = st.cons.get(k)
        if c is None:
            continue
        got = None
        if c._tried != ():
            got = UNIFY._fix_rule(c, gen, sig) if isinstance(c, Fix) else UNIFY._eq_rule(c, gen, sig)
        if got is None:
            object.__setattr__(c, "_tried", ())
            if isinstance(c, Eq):
                heappush(st.inst, k)
            continue
        rule, children = got
        st.consume(k)
        out = []
        for cons in children[:-1]:
            child = st.copy()
            child.prepend(cons)
            out.append((child, UNIFY.SimplStep(rule, c, cons)))
        st.prepend(children[-1])
        out.append((st, UNIFY.SimplStep(rule, c, children[-1])))
        return out
    while st.inst:
        k = heappop(st.inst)
        c = st.cons.get(k)
        got = None if c is None else UNIFY._instantiation(c, rigid)
        if got is None:
            continue
        rule, side, other = got
        x, u = side.var, UNIFY.act(side.perm.inverse(), other)
        st.consume(k)
        st.bind(x, u)
        return [(st, UNIFY.SimplStep(rule, c, (), (x, u)))]
    return []


def renamed(sol: Solution, drop_new=False) -> Solution:
    """sol with its generated atoms, n0, n1, ..., renamed m0, m1, ... in the
    order they first appear in its text.  The two orders generate new atoms
    in different orders, and is_more_general reads a new atom as a fixed
    one: {(n2 n3) fix X} does not give (n4 n5) fix X.  With drop_new,
    the context also drops the constraints that move new atoms only: two new
    atoms are new for every variable, so swapping them fixes it, but
    is_more_general cannot derive that either."""
    names = {}

    def rename(text: str) -> str:
        return re.sub(r"\bn\d+\b", lambda m: names.setdefault(m[0], f"m{len(names)}"), text)

    rename(sol.key())
    context = FixpointContext(
        frozenset(
            (parse_perm(rename(print_perm(p))), x)
            for p, x in sol.context.constraints
            if not drop_new or any(not re.fullmatch(r"n\d+", a.name) for a in p.support())
        )
    )
    return Solution(context, Substitution({x: parse_term(rename(print_term(t)), SIG_C) for x, t in sol.subst.bindings.items()}))


def subsumes(sols, others, variables) -> bool:
    """Whether each solution of others has a more general one in sols."""
    keys = {s.key() for s in sols}
    return all(o.key() in keys or any(is_more_general(s, o, variables, SIG_C) for s in sols) for o in others)


class TestBranchLast:
    """Branching only once no other step applies finds what the first-step
    order it replaced finds, kept above as the reference: the same status
    and number of solutions, and solutions as general.  Its trees pass the
    certificate checker.

    Taking a step before a split, not in each branch, can spare a branch the
    new atoms of a fix-abs step: the search no longer meets Id fix? [a] t
    but [a] t =? [a] t.  So its solutions subsume the reference's, and the
    reference's subsume them only once the constraints on new atoms alone
    are dropped; --dedup, which merges only what is_more_general proves
    equal, may keep fewer.  The leaf counts may differ either way: which
    split comes first decides where a failing branch is cut.  On
    [e] +(Z, e) =? [a] Y, [c] [b] (d e).Z =? [c] [a] c,
    (c e) fix? +([a] (b d)(d e).Y, (c d)(d e).Z) the reference splits on the
    fixed-point constraint before the bindings and has 9 leaves, this order
    12."""

    def test_agrees_with_first_step_order(self, rng):
        branched = 0
        for _ in range(1000):
            pr = random_c_problem(rng)
            res, deduped = solve(SIG_C, pr), c_unify(pr, SIG_C, dedup=True)
            with mock.patch.object(UNIFY, "expand", first_step_expand):
                ref, ref_deduped = solve(SIG_C, pr), c_unify(pr, SIG_C, dedup=True)
            assert (res.status, len(res.solutions)) == (ref.status, len(ref.solutions))
            assert len(deduped.solutions) <= len(ref_deduped.solutions)
            variables = problem_vars(pr)
            assert subsumes([renamed(s) for s in res.solutions], [renamed(s) for s in ref.solutions], variables)
            got, want = ([renamed(s, drop_new=True) for s in r.solutions] for r in (res, ref))
            assert subsumes(want, got, variables)
            check_tree(SIG_C, pr, res.tree)
            branched += res.leaves > 1
        assert branched > 100


def steps_of(path) -> list:
    steps = []
    while path is not None:
        step, path = path
        steps.append(step)
    return steps[::-1]


def c_outcome(res) -> tuple:
    """What a c_unify result says: status, solutions, each leaf's outcome
    in search order, and the tree."""
    leaves = [(failure, None if sol is None else sol.key()) for _, failure, sol in res.outcomes]
    return res.status, [s.key() for s in res.solutions], leaves, res.tree


class TestSharedSplits:
    """A split's alternatives are derived once per search, when its
    constraint is first tried, and kept on it: every branch below the split
    holds the same child constraint objects, and another search, under
    another signature or none, derives its own steps."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_each_split_derived_once(self, monkeypatch, k):
        rule, splits = UNIFY._rule, []

        def counted(c, gen, sig):
            got = rule(c, gen, sig)
            if got is not None and len(got[1]) > 1:
                splits.append(c)
            return got

        monkeypatch.setattr(UNIFY, "_rule", counted)
        pr = c_pairs(k)
        res = c_unify(pr, SIG)
        assert len(splits) == k and set(map(id, splits)) == set(map(id, pr))
        assert (len(res.tree), res.leaves, len(res.solutions)) == (TestSearchSize.PAIRS[k - 1], 2**k, 2**k)

    def test_branches_share_child_constraints(self):
        # each pair takes a split and two instantiations, so a path has 3k
        # steps.  Two leaves that part at the first split and take the same
        # alternative at every later one hold the same objects in every
        # step below the first pair's three
        k = 3
        res = c_unify(c_pairs(k), SIG)
        paths = [steps_of(path) for path, *_ in res.outcomes]
        assert all(len(p) == 3 * k for p in paths)
        siblings = 0
        for a in paths:
            for b in paths:
                if a[0].produced == b[0].produced or a[3:] != b[3:]:
                    continue
                siblings += 1
                for x, y in zip(a[3:], b[3:]):
                    assert x.consumed is y.consumed
                    assert len(x.produced) == len(y.produced)
                    assert all(p is q for p, q in zip(x.produced, y.produced))
        assert siblings == 2**k

    PROBLEM = ("+(X, Y) =? +(a, b)", "(a b) fix? +(Z, f(a))", "+(X, a) =? +(b, Y)", "f(Z) =? f(W)")

    def parsed(self):
        return [parse_constraint(c, SIG) for c in self.PROBLEM]

    def test_no_memo_leaks_between_searches(self):
        syntactic = Signature({"+": Theory.NONE, "f": Theory.NONE})

        def unify_outcome(res):
            return res.status, str(res.solution), res.witness_kind, list(map(str, res.steps)), res.normal_form

        pr = self.parsed()
        for solve_it, outcome in (
            (lambda p: c_unify(p, SIG), c_outcome),
            (lambda p: c_unify(p, syntactic), c_outcome),
            (lambda p: unify(p), unify_outcome),
        ):
            assert outcome(solve_it(pr)) == outcome(solve_it(self.parsed()))
        assert c_unify(pr, SIG).leaves > 1 and c_unify(pr, syntactic).leaves == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_objects_solve_alike_twice(self, seed):
        pr = random_c_problem(random.Random(seed))
        assert c_outcome(c_unify(pr, SIG_C)) == c_outcome(c_unify(pr, SIG_C))
