import hashlib
import json
import random
import re
import sys
from heapq import heappop, heappush
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from certificate import check_tree, part_problems, search_order, solve, texts
from nomfix import (
    App,
    Eq,
    Fix,
    FixpointContext,
    Permutation,
    Signature,
    Solution,
    Substitution,
    Susp,
    Theory,
    Tup,
    Var,
    atoms_in,
    c_unify,
    generator_avoiding,
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


def solution(bindings: dict, fixes=()) -> Solution:
    """The solution {p fix X, ...} |- {X -> t, ...} of the texts given."""
    context = FixpointContext(frozenset((parse_perm(p), Var(x)) for p, x in fixes))
    return Solution(context, Substitution({Var(x): parse_term(t) for x, t in bindings.items()}))


class TestIsMoreGeneral:
    """sol1's own variables, those not among the given ones, are renamed
    apart before matching, in its terms and its context: none is read as
    sol2's variable of the same name."""

    @pytest.mark.parametrize("sol1, sol2, variables, general", [
        (solution({"X": "Y"}), solution({"X": "f(Y)"}), [X], True),
        (solution({"X": "Y"}), solution({"X": "f(Z)"}), [X], True),
        (solution({"X": "f(Y)"}), solution({"X": "Y"}), [X], False),
        (solution({"X": "(a b).Y"}), solution({"X": "Y"}), [X], True),
        (solution({"X": "Y"}, [("(a b)", "Y")]), solution({"X": "f(Y)"}), [X], False),
        (solution({"X": "Y"}, [("(a b)", "Y")]), solution({"X": "f(Y)"}, [("(a b)", "Y")]), [X], True),
        # sol1's context follows its renamed Y, which stands for f(a) here, not for sol2's Y
        (solution({"X": "Y"}, [("(a b)", "Y")]), solution({"X": "f(a)"}, [("(a b)", "Y")]), [X], False),
    ])
    def test_own_variables_are_renamed_apart(self, sol1, sol2, variables, general):
        assert is_more_general(sol1, sol2, variables) is general

    def test_a_matched_candidate_can_fail_the_alpha_check(self, monkeypatch):
        # over [X, Y], Y is given and not renamed: matching (a b).Y =? Y and
        # Y =? Y leaves the candidate {(a b) fix Y} |- {}, and (a b).Y is
        # not Y under sol2's empty context
        verdicts = []

        def check(*args, inner=UNIFY.check_alpha_fixp):
            verdicts.append(inner(*args))
            return verdicts[-1]

        monkeypatch.setattr(UNIFY, "check_alpha_fixp", check)
        assert not is_more_general(solution({"X": "(a b).Y"}), solution({"X": "Y"}), [X, Y])
        assert verdicts == [False]


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
        assert len(outcomes) == part_leaves(res) and set(outcomes) == {"clash"}


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


def part_leaves(res) -> int:
    """The leaves the parts' searches reached: the sum of the parts' leaf
    counts, where res.leaves is their product."""
    return sum(len(leaves) for _, leaves in res.parts)


def tree_parts(tree) -> list[list[dict]]:
    """The leaf records below each part's AND node, or below the root of a
    one-part tree, in record order."""
    tops = [r["id"] for r in tree if r["rule"] == "part"] or [0]
    return [[tree[i] for i in sorted(search_order(tree, top)) if "outcome" in tree[i]] for top in tops]


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
    pairs had 6 * 2**k - 5 records, not (2k + 2) * 2**k - 1.  They were
    recorded again when the tree came to hang each part's own tree from an
    AND node below the root, with the leaf and solution counts kept: at
    k >= 2 the root, and per pair its node and the 6 records of its tree,
    so 7k + 1 records, not 6 * 2**k - 5."""

    PAIRS = [7] + [7 * k + 1 for k in range(2, 9)]  # tree records at k = 1..8: 7, 15, 22, ... 57
    ROTATION = [(7, 2, 2), (14, 4, 2), (21, 8, 4), (28, 16, 8), (34, 32, 8), (41, 64, 16), (48, 128, 32),
                (54, 256, 32)]  # (tree records, leaves, solutions) at k = 1..8
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
    with the output of before.  Since the parts of a problem that share no
    variable are solved apart, a solution of the whole merges its parts'
    printed bindings: each part's are printed once, not once per
    combination."""

    # sha256 of `nomfix cunify` output on c_pairs(8) for each flag set: the
    # text ones recorded before the text was kept, the tree's again when the
    # search came to branch last, which left the output without it as it
    # was; the --json ones before key() and --json came to share one print.
    # Both --tree ones were recorded again when each part's tree came to
    # hang from an AND node, which left the outputs without it as they were
    OUTPUT = {
        (): "5fd6330e614dff3777d719b53133e78e5434d5a1671b8cd490238958691f6825",
        ("--tree",): "d3ee37aaddd593ff2f0d7023905d54f103b04d51617f0b761942be4b0064cde4",
        ("--json",): "97e27c2db343c9873d4ce5c4924c098d41726c4388f6185b4a8e98d676a29d3f",
        ("--json", "--tree"): "4fbfc8b297d7fa1638869752f60b34ef47d0c540be33939fab64355b75a29d8a",
    }

    @pytest.mark.parametrize("flags", list(OUTPUT))
    def test_one_print_term_per_binding_per_solution(self, monkeypatch, capsys, tmp_path, flags):
        path = tmp_path / "pairs.nom"
        path.write_text("sym + : C ;\n" + ",\n".join(map(str, c_pairs(8))) + "\n")
        # every print_term call but the tree's, which prints the steps'
        # constraints and bindings: so one per binding of each part's
        # solution
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
        assert len(calls) == 8 * 2 * 2  # 8 parts of 2 solutions, each binding Xi and Yi
        assert hashlib.sha256(out.encode()).hexdigest() == self.OUTPUT[flags]


class TestLazyTree:
    """The search keeps the leaves' chains of steps; the tree's records are
    read off them, without replaying a step, only when the tree is read.
    Each of the problem's parts is searched once, and the tree hangs each
    part's tree from an AND node of its own."""

    def test_no_tree_work_unless_read(self, monkeypatch):
        # c_pairs(6) is six parts of two leaves: a problem is built at each
        # of their 12 leaves, not at each of the 64 of a search of the whole
        counts = {}
        count_calls(monkeypatch, CUNIFY, "tree_records", counts)
        count_calls(monkeypatch, UNIFY._State, "problem", counts)
        res = c_unify(c_pairs(6), SIG)
        assert res.leaves == 2**6 and len(res.solutions) == 2**6
        assert counts == {"problem": 6 * 2}
        records = res.tree
        assert counts == {"problem": 6 * 2, "tree_records": 1}
        assert res.tree is records and counts["tree_records"] == 1
        assert sum("outcome" in r for r in records) == part_leaves(res) == 6 * 2

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
        check_tree(sig, pr, res.tree)
        return part_problems(sig, pr, res)

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
            assert sum("outcome" in r for r in res.tree) == part_leaves(res)

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
        parts = tree_parts(res.tree)
        assert [len(leaves) for leaves in parts] == [len(leaves) for _, leaves in res.parts]
        # a leaf holds its part's solution, and the solutions combine one of each part's
        assert prod(sum("solution" in r for r in leaves) for leaves in parts) == len(res.solutions)
        if len(parts) == 1:
            assert sorted(r["solution"] for r in parts[0] if "solution" in r) == [s.key() for s in res.solutions]

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

    # the tree of PARTED: the root, then AND nodes 1 (X, Y), 8 (Z, which
    # takes no step and so is its own leaf) and 9 (W), each part's tree below
    # its node
    PARTED = ("+(X, Y) =? +(c, f(d))", "(a b) fix? Z", "f(W) =? f(a)", "X =? c")

    @staticmethod
    def merged(records, into, gone):
        """records with AND node gone merged into node into: its problem
        appended, its children moved, and the ids after it renumbered."""
        out = [r for r in records if r["id"] != gone]
        out[into]["problem"] = out[into]["problem"] + records[gone]["problem"]
        for r in out:
            r["id"] -= r["id"] > gone
            if r["parent"] is not None:
                r["parent"] = into if r["parent"] == gone else r["parent"] - (r["parent"] > gone)
        return out

    def test_parted_tree(self):
        pr = tuple(parse_constraint(c, SIG) for c in self.PARTED)
        res = solve(SIG, pr)
        check_tree(SIG, pr, res.tree)
        nodes = [r for r in res.tree if r["rule"] == "part"]
        assert [(r["id"], r["parent"], r["problem"]) for r in nodes] == [
            (1, 0, ["+(X, Y) =? +(c, f(d))", "X =? c"]), (8, 0, ["(a b) fix? Z"]), (9, 0, ["f(W) =? f(a)"])]
        assert (res.tree[8]["outcome"], res.tree[8]["solution"]) == ("success", "{(a b) fix Z} |- {}")

    @pytest.mark.parametrize("tamper", ["constraint in the wrong part", "two parts in one node", "a part with no leaf"])
    def test_tampered_parts_are_rejected(self, tamper):
        pr = tuple(parse_constraint(c, SIG) for c in self.PARTED)
        records = [dict(r) for r in solve(SIG, pr).tree]
        if tamper == "constraint in the wrong part":
            records[9]["problem"] = records[9]["problem"] + records[1]["problem"][1:]
            records[1]["problem"] = records[1]["problem"][:1]
        elif tamper == "two parts in one node":
            records = self.merged(records, 8, 9)
        else:
            del records[8]["outcome"], records[8]["solution"]
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
    """What a c_unify result says: status, solutions, each part's
    constraints and its leaves' outcomes in search order, and the tree."""
    parts = [(indices, leaf_keys(leaves)) for indices, leaves in res.parts]
    return res.status, [s.key() for s in res.solutions], parts, res.tree


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
        # one part, split first on +(X, Y) and then on +(Z, W): the second
        # split's constraint is tried once, above the first split, so on all
        # four paths it is one object, and two paths that part at the first
        # split and take the same alternative at the second hold the same
        # child objects
        sig = Signature({"+": Theory.C, "h": Theory.NONE})
        pr = tuple(parse_constraint(c, sig) for c in ("+(X, Y) =? +(a, b)", "+(Z, W) =? +(c, d)", "h(X, Z) =? h(X, Z)"))
        res = c_unify(pr, sig)
        ((_, leaves),) = res.parts
        splits = [[s for s in steps_of(path) if s.rule == "eq-app-C"] for path, *_ in leaves]
        assert len(splits) == 4 and all(len(s) == 2 for s in splits)
        assert len({id(second.consumed) for _, second in splits}) == 1
        siblings = 0
        for a_first, a_second in splits:
            for b_first, b_second in splits:
                if a_first.produced == b_first.produced or a_second.produced != b_second.produced:
                    continue
                siblings += 1
                assert all(p is q for p, q in zip(a_second.produced, b_second.produced, strict=True))
        assert siblings == 4

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


def renamed_apart(problems) -> tuple:
    """The constraints of problems, the variables of the j-th renamed with
    the suffix j, so that no two of them share a variable."""
    out = []
    for j, pr in enumerate(problems):
        theta = Substitution({x: Susp(idp, Var(f"{x.name}{j}")) for x in problem_vars(pr)})
        out += [Eq(theta(c.lhs), theta(c.rhs)) if isinstance(c, Eq) else Fix(c.perm, theta(c.target)) for c in pr]
    return tuple(out)


def parted_c_problem(rng) -> tuple:
    """Two to four random_c_problems renamed apart, and up to two ground
    equations +(s, t) =? +(u, v), in a random order."""
    pr = list(renamed_apart([random_c_problem(rng) for _ in range(rng.randrange(2, 5))]))
    for _ in range(rng.randrange(3)):
        s, t, u, v = (random_term(rng, SIG_C, depth=1, ground=True) for _ in range(4))
        pr.append(Eq(App("+", Tup((s, t))), App("+", Tup((u, v)))))
    rng.shuffle(pr)
    return tuple(pr)


class TestParts:
    """c_unify solves the parts of a problem that share no variable apart,
    and combines their complete sets as a product.  The reference is the
    search over the whole problem as one tree (unify._derive), which it
    replaced: the same status, leaves and number of solutions, solution
    sets that subsume each other both ways once the generated atoms are
    named canonically, and a tree that passes the certificate checker with
    one leaf record per leaf of each part.  Problems whose one tree has
    more than 256 leaves are left out, for time."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_one_tree(self, seed):
        pr = parted_c_problem(random.Random(seed))
        res = solve(SIG_C, pr)
        if res.leaves > 256:
            return
        gen = generator_avoiding(atoms_in(*pr), prefix="n")
        leaves = list(UNIFY._derive(pr, SIG_C, gen, (Theory.NONE, Theory.C)))
        ref = [s for *_, s in leaves if s is not None]
        status = "solved" if ref else "unsolvable"
        assert (res.status, res.leaves, len(res.solutions)) == (status, len(leaves), len(ref))
        variables = problem_vars(pr)
        got, want = [renamed(s) for s in res.solutions], [renamed(s) for s in ref]
        assert subsumes(got, want, variables) and subsumes(want, got, variables)
        check_tree(SIG_C, pr, res.tree)
        assert sum("outcome" in r for r in res.tree) == part_leaves(res)

    def test_parts_draw_from_one_generator(self):
        # each part renames a binder, and so generates two atoms; the parts'
        # atoms are distinct, and none is an atom of the problem
        pr = tuple(parse_constraint(c, SIG) for c in ("[a] +(X, a) =? [b] +(b, Y)", "[c] +(Z, c) =? [d] +(d, W)"))
        res = c_unify(pr, SIG)
        made = {"XY": set(), "ZW": set()}
        for sol in res.solutions:
            for p, x in sol.context.constraints:
                made["XY" if x.name in "XY" else "ZW"] |= p.support()
        made = {k: v - atoms_in(*pr) for k, v in made.items()}
        assert len(made["XY"]) == len(made["ZW"]) == 2
        assert not made["XY"] & made["ZW"]
        assert (res.leaves, len(res.solutions)) == (16, 16)

    def test_ground_constraints(self):
        pr = tuple(parse_constraint(c, SIG) for c in ("+(a, b) =? +(b, a)", "+(X, a) =? +(b, a)"))
        res = c_unify(pr, SIG)
        assert (res.leaves, [s.key() for s in res.solutions]) == (4, ["{} |- {X -> b}"])

    def test_empty_problem(self):
        res = c_unify((), SIG)
        assert (res.leaves, [s.key() for s in res.solutions]) == (1, ["{} |- {}"])


def one_solution_pairs(k):
    """k independent pairs +(Xi, ai) =? +(bi, ai): each branches in two and
    one branch clashes, so 2^k leaves and one solution."""
    return tuple(parse_constraint(f"+(X{i}, a{i}) =? +(b{i}, a{i})", SIG) for i in range(k))


def chained_pairs(k):
    """k pairs +(Xi, X(i+1)) =? +(a, b), chained by their variables into one
    part: 2^k leaves, 2 solutions."""
    return tuple(parse_constraint(f"+(X{i}, X{i + 1}) =? +(a, b)", SIG) for i in range(k))


class TestPartGrowth:
    """Counts, not clocks: independent pairs cost a search per pair, while
    leaves still counts the 2^k leaves of a search of the whole problem;
    pairs chained into one part take the steps they took when every problem
    was searched as one tree; and --json writes each binding of the pairs'
    solutions once, not once per combination that holds it."""

    @pytest.mark.parametrize("k", [8, 16])
    def test_independent_pairs_search_each_pair(self, monkeypatch, k):
        counts = {}
        count_calls(monkeypatch, UNIFY._State, "problem", counts)
        res = c_unify(one_solution_pairs(k), SIG)
        assert counts == {"problem": 2 * k}  # a search over the whole problem built 2^k
        assert (res.leaves, len(res.solutions)) == (2**k, 1)

    @pytest.mark.parametrize("k", [8, 12])
    def test_json_writes_each_binding_once(self, monkeypatch, capsys, tmp_path, k):
        # 2^k solutions of 2k bindings each, which --json wrote object by
        # object, 2k * 2^k in all; the pairs' solutions hold 4k
        cli = sys.modules["nomfix.cli"]
        written, json_text = [], cli._json

        def counted(v, pad):
            if type(v) is dict and list(v) == ["var", "term"]:
                written.append(v)
            return json_text(v, pad)

        monkeypatch.setattr(cli, "_json", counted)
        path = tmp_path / "pairs.nom"
        path.write_text("sym + : C ;\n" + ",\n".join(map(str, c_pairs(k))) + "\n")
        assert main(["cunify", "--json", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["solutions"]) == 2**k
        assert len(written) == 4 * k

    # unify.expand calls and tree records at k = 4, 6 and 8, recorded when
    # every problem was searched as one tree: 5 * 2**k - 3 each
    CHAINED = {4: 77, 6: 317, 8: 1277}

    @pytest.mark.parametrize("k", sorted(CHAINED))
    def test_chained_pairs_are_one_part(self, monkeypatch, k):
        counts = {}
        count_calls(monkeypatch, UNIFY, "expand", counts)
        res = c_unify(chained_pairs(k), SIG)
        assert (counts["expand"], len(res.tree)) == (self.CHAINED[k], self.CHAINED[k])
        assert (res.leaves, len(res.solutions)) == (2**k, 2)


def duplicate_pairs(k):
    """k independent pairs +(Xi, Xi) =? +(ai, ai): both branches of each
    give Xi -> ai, so 2^k leaves and 2^k solutions, all equivalent."""
    return tuple(parse_constraint(f"+(X{i}, X{i}) =? +(a{i}, a{i})", SIG) for i in range(k))


class TestDedupGrowth:
    """Counts, not clocks: dedup=True compares solutions within each part,
    and combines only the kept ones.  Deduplicating the whole product, as
    c_unify did before, made 2^k - 1 combinations and 2 * (2^k - 1)
    is_more_general calls on k duplicate pairs."""

    @pytest.mark.parametrize("k", [8, 16])
    def test_duplicate_pairs(self, monkeypatch, k):
        counts = {}
        count_calls(monkeypatch, CUNIFY, "is_more_general", counts)
        count_calls(monkeypatch, CUNIFY, "_combine", counts)
        res = c_unify(duplicate_pairs(k), SIG, dedup=True)
        # each pair's second solution is proved equivalent to its first, both ways
        assert counts == {"is_more_general": 2 * k, "_combine": 1}
        assert (res.leaves, len(res.solutions)) == (2**k, 1)

    @pytest.mark.parametrize("k", [8, 16])
    def test_rotating_pairs(self, monkeypatch, k):
        # perfbench's c_pairs: a two-solution pair's solutions differ at the
        # first comparison, a one-solution pair makes none, and a duplicate
        # pair makes two; the kept product is 2^(two-solution pairs)
        counts = {}
        count_calls(monkeypatch, CUNIFY, "is_more_general", counts)
        count_calls(monkeypatch, CUNIFY, "_combine", counts)
        res = c_unify(rotation(k), SIG, dedup=True)
        two, dup = len(range(0, k, 3)), len(range(2, k, 3))
        assert counts == {"is_more_general": two + 2 * dup, "_combine": 2**two}
        assert (res.leaves, len(res.solutions)) == (2**k, 2**two)

    def test_reading_leaves_combines_nothing(self, monkeypatch):
        # a leaf holds its part's own solution, with or without dedup, and
        # reading the leaves and the tree combines none
        counts = {}
        count_calls(monkeypatch, CUNIFY, "_combine", counts)
        res = c_unify(duplicate_pairs(6), SIG, dedup=True)
        assert counts == {"_combine": 1}
        assert c_outcome(res)[2:] == c_outcome(c_unify(duplicate_pairs(6), SIG))[2:]
        # the plain search's 2^6 solutions only
        assert counts == {"_combine": 1 + 2**6}


DEDUP_TEMPLATES = ("+(X, X) =? +(a, a)", "[a] +(X, a) =? [b] +(b, Y)", "+(X, Y) =? +(Y, X)")


def dedup_c_problem(rng) -> tuple:
    """Two to four parts renamed apart, in a random order, each one
    constraint of DEDUP_TEMPLATES, whose solutions fall into classes of
    equivalent ones, or a random_c_problem."""
    parts = [(parse_constraint(rng.choice(DEDUP_TEMPLATES), SIG_C),) if rng.random() < 0.6 else random_c_problem(rng)
             for _ in range(rng.randrange(2, 5))]
    pr = list(renamed_apart(parts))
    rng.shuffle(pr)
    return tuple(pr)


def whole_product_dedup(pr, sig) -> list[Solution]:
    """The reference for dedup=True, as c_unify did it before it went part
    by part: every solution of the whole problem, in key order, kept unless
    it is equivalent to one kept before it over all the problem's
    variables."""
    variables, kept = problem_vars(pr), []
    for sol in c_unify(pr, sig).solutions:
        if not any(is_more_general(k, sol, variables, sig) and is_more_general(sol, k, variables, sig) for k in kept):
            kept.append(sol)
    return kept


class TestDedupParts:
    """dedup=True deduplicates each part's solutions and combines the kept
    ones; the reference deduplicates the whole product.  Both give the same
    status, the same leaves and tree as the search without dedup, and the
    same solutions by key.  Problems with more than 128 solutions are left
    out, for time: the reference compares each with every kept one."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_whole_product(self, seed):
        pr = dedup_c_problem(random.Random(seed))
        plain = c_unify(pr, SIG_C)
        if len(plain.solutions) > 128:
            return
        res, ref = c_unify(pr, SIG_C, dedup=True), whole_product_dedup(pr, SIG_C)
        assert res.status == ("solved" if ref else "unsolvable")
        assert c_outcome(res)[2:] == c_outcome(plain)[2:]
        assert [s.key() for s in res.solutions] == [s.key() for s in ref]

    def test_templates_exercise_dedup(self, rng):
        # the property's problems often have solutions that dedup drops
        dropped = 0
        for _ in range(100):
            pr = dedup_c_problem(rng)
            dropped += len(c_unify(pr, SIG_C, dedup=True).solutions) < len(c_unify(pr, SIG_C).solutions)
        assert dropped > 15


def leaf_keys(leaves) -> list:
    """Each of a part's leaves as its failure kind, or None, and its
    solution's key, or None."""
    return [(failure and failure[0], sol and sol.key()) for _, failure, sol in leaves]


class TestLeafOrder:
    """Each part's leaves come in one order, each successful one with its
    part's solution.  Without dedup, the solutions combine one successful
    leaf of each part; with dedup, each leaf is the one the search without
    it has in its place.  Under each part's AND node, the tree's leaf
    records, in record order, are the part's leaves read backwards.
    Problems whose search of the whole has more than 256 leaves are left
    out, for time."""

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from([parted_c_problem, dedup_c_problem]), st.integers(min_value=0, max_value=2**32 - 1))
    def test_forwards_and_dedup(self, make, seed):
        pr = make(random.Random(seed))
        plain = c_unify(pr, SIG_C)
        if plain.leaves > 256:
            return
        parts = [leaf_keys(leaves) for _, leaves in plain.parts]
        assert prod(sum(kind is None for kind, _ in leaves) for leaves in parts) == len(plain.solutions)
        res = c_unify(pr, SIG_C, dedup=True)
        assert [leaf_keys(leaves) for _, leaves in res.parts] == parts

    @settings(deadline=None, max_examples=150)
    @given(
        st.sampled_from([parted_c_problem, dedup_c_problem]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_tree_leaves_are_part_leaves_reversed(self, make, dedup, seed):
        # a part's search visits the last child first, so the pre-order of
        # the tree below its node is its leaves' search order backwards
        res = c_unify(make(random.Random(seed)), SIG_C, dedup=dedup)
        if res.leaves > 256:
            return
        tree = [[(None if r["outcome"] == "success" else r["outcome"], r.get("solution")) for r in leaves]
                for leaves in tree_parts(res.tree)]
        assert tree == [leaf_keys(leaves)[::-1] for _, leaves in res.parts]
