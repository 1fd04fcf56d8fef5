"""Derivation traces of both checking engines and derivations of unify,
match and c_unify, compared exactly with a recorded copy, so that a change
to the engines or the solvers cannot change a trace unseen.

The goals below use every rule of both engines between them: atom, var,
tuple, abs, abs-rename, app, A, both C alignments, AC pick/rest, clash,
#abs-same, fix-abs and fix-app-C/fix-app-AC, failing and succeeding, and
the side conditions of abs-rename on bodies with variables and on ground
bodies (#ground, fix-ground; tests/data/alpha_renamed_ground.nom).  The
problems use every eq-*/fix-* simplification rule, both eq-app-C and
fix-app-C branches, and every witness kind: clash, occurs, rigid (by
match) and fixpoint-inconsistency.
Regenerate the expected file only for an intended change of trace format,
or of a derivation, stated in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_traces.py > tests/data/golden_traces.json
"""

import json
import pathlib
import sys

from nomfix import (
    Eq,
    FixpointContext,
    FreshnessContext,
    c_unify,
    check_alpha_fixp,
    check_alpha_fresh,
    check_fixp,
    check_fresh,
    free_vars,
    match,
    parse_problem_file,
    unify,
)
from nomfix.alpha import trace_line
from nomfix.cunify import tree_line
from nomfix.printer import print_records

from certificate import check_tree, solve

SYMS = "sym f : none ; sym + : C ; sym * : AC ; sym cat : A ;\n"

# (engine, problem text); each problem's context suits its engine.
GOALS = [
    ("fresh", "context: a fresh X ;\na fresh? b,\na fresh? a"),
    ("fresh", "context: a fresh X ;\na fresh? (b c).X,\na fresh? (a b).X"),
    ("fresh", "context: a fresh X ;\na fresh? f((b, [a] a, [b] X))"),
    ("fresh", "a fresh? (a, b),\na fresh? [b] (b, c)"),
    ("alpha-fresh", "context: a fresh X, b fresh X ;\na =? a,\n(a b).X =? X,\nb =? a"),
    ("alpha-fresh", "context: a fresh X ;\n[a] X =? [b] (a b).X,\n[a] a =? [a] a,\n[a] a =? [b] a"),
    ("alpha-fresh", "[a] c =? [b] c,\n[a] (a, b) =? [b] (b, a),\nf((a, b)) =? f((a, b)),\nf((a, b)) =? f((b, b))"),
    ("alpha-fresh", "cat(a, cat(b, c)) =? cat(cat(a, b), c),\ncat(a, b) =? cat(a, b, c)"),
    ("alpha-fresh", "+(a, b) =? +(b, a),\n+(a, b) =? +(c, a),\n+(a, b) =? +(a, b)"),
    ("alpha-fresh", "*(a, b, c) =? *(c, a, b),\n*(a, b) =? *(a, c),\n*(a, *(b, c)) =? *(b, c)"),
    ("alpha-fresh", "a =? f(a),\n(a, b) =? (a, b, c),\nX =? Y"),
    ("alpha-fresh", "context: c fresh X ;\n[a] +(a, X) =? [b] +(X, b),\n[a] *([c] (a, c), X) =? [b] *(X, [d] (b, d))"),
    ("fixp", "context: (a b) fix X ;\n(a b) fix? c,\n(a b) fix? a,\n(a b) fix? X,\n(a c) fix? X"),
    ("fixp", "context: (a b) fix X ;\n(a b) fix? f((c, X)),\n(a b) fix? [a] a,\n(a b) fix? [c] X"),
    ("fixp", "(a b) fix? +(a, b),\n(a b) fix? +(a, c),\n(a b) fix? *(a, b, c),\n(a b)(b c) fix? *(*(f(a), f(b)), f(c))"),
    ("fixp", "(a b) fix? cat(a, b),\n(a b) fix? cat(c, c),\nId fix? [a] (b, a)"),
    ("alpha-fixp", "context: (a b) fix X ;\na =? a,\n(a b).X =? X,\n(a c).X =? X,\nb =? a"),
    ("alpha-fixp", "context: (a b) fix X ;\n[a] X =? [b] (a b).X,\n[a] a =? [a] a,\n[a] a =? [b] a"),
    ("alpha-fixp", "[a] c =? [b] c,\n[a] (a, b) =? [b] (b, a),\nf((a, b)) =? f((a, b)),\nf((a, b)) =? f((b, b))"),
    ("alpha-fixp", "cat(a, cat(b, c)) =? cat(cat(a, b), c),\ncat(a, b) =? cat(a, b, c)"),
    ("alpha-fixp", "+(a, b) =? +(b, a),\n+(a, b) =? +(c, a),\n+(a, b) =? +(a, b)"),
    ("alpha-fixp", "*(a, b, c) =? *(c, a, b),\n*(a, b) =? *(a, c),\n*(a, *(b, c)) =? *(b, c)"),
    ("alpha-fixp", "a =? f(a),\n(a, b) =? (a, b, c),\nX =? Y"),
    ("alpha-fixp", "context: (c d) fix X ;\n[a] +(a, X) =? [b] +(X, b),\n[a] *([c] (a, c), X) =? [b] *(X, [d] (b, d))"),
    ("alpha-fixp", "[a] +(a, c) =? [b] +(c, b),\n[a] [b] *(a, b) =? [b] [a] *(a, b)"),
    # look-alike AC arguments: the goal fails at the first argument left
    # without a partner, g(b), and no earlier choice is revisited
    ("alpha-fixp", "sym g : none ;\n*(g(a), g(a), g(b)) =? *(g(a), g(a), g(c))"),
]
# the corpus file of renamed binders over ground bodies, in both engines
RENAMED_GROUND = (pathlib.Path(__file__).parent / "data" / "alpha_renamed_ground.nom").read_text()
GOALS += [("alpha-fresh", RENAMED_GROUND), ("alpha-fixp", RENAMED_GROUND)]

# (solver, problem text); match takes the right-hand sides' variables as rigid.
PROBLEMS = [
    ("unify", "[a] f((X, a)) =? [b] f(((b c).W, (a c).Y))"),
    ("unify", "[a] X =? [a] f(b),\n(a b).Z =? Z,\nf(a) =? W,\na =? a"),
    ("unify", "(a b) fix? (c, f(X), [a] Y, [c] (a c).Z)"),
    ("unify", "f(a) =? g(a)"),
    ("unify", "X =? f((a b).X)"),
    ("unify", "(a b) fix? [c] (c, a)"),
    ("match", "X =? f(Y),\n[a] Z =? [b] (a b).Y"),
    ("match", "f(a) =? Y"),
    ("cunify", "+((a b).X, a) =? +(Y, X)"),
    ("cunify", "+(X, Y) =? +(a, b),\n(a b) fix? +(a, b)"),
    ("cunify", "+(X, X) =? +(a, a)"),
    ("cunify", "+(X, a) =? +(f(X), b)"),
    ("cunify", "(a b) fix? [c] +(c, X)"),
    ("cunify", "+(X, Y) =? +(a, b),\n(a c) fix? X"),
]
# the corpus file of parts with equivalent solutions, which --dedup merges
# part by part
PROBLEMS.append(("cunify", (pathlib.Path(__file__).parent / "data" / "cunify_dedup_parts.nom").read_text()))


def traces(engine: str, text: str) -> list:
    pf = parse_problem_file(SYMS + text)
    sig = pf.signature
    fresh_ctx = pf.context if isinstance(pf.context, FreshnessContext) else FreshnessContext()
    fixp_ctx = pf.context if isinstance(pf.context, FixpointContext) else FixpointContext()
    out = []
    for c in pf.constraints:
        trace = []
        if engine == "fresh":
            check_fresh(fresh_ctx, c.atom, c.term, trace=trace)
        elif engine == "alpha-fresh":
            check_alpha_fresh(sig, fresh_ctx, c.lhs, c.rhs, trace=trace)
        elif engine == "fixp":
            check_fixp(sig, fixp_ctx, c.perm, c.target, trace=trace)
        else:
            check_alpha_fixp(sig, fixp_ctx, c.lhs, c.rhs, trace=trace)
        records = [node.record() for node in trace]
        out.append({"render": "\n".join(print_records(records, trace_line)), "records": records})
    return out


def derivation(solver: str, text: str) -> dict:
    pf = parse_problem_file(SYMS + text)
    pr = tuple(pf.constraints)
    if solver == "cunify":
        out = {}
        for dedup in (False, True):
            res = c_unify(pr, pf.signature, dedup=dedup)
            out["dedup" if dedup else "all"] = {
                "render": "\n".join(print_records(res.tree, tree_line)),
                "records": res.tree,
                "leaves": res.leaves,
                "solutions": [s.key() for s in res.solutions],
            }
        return out
    if solver == "match":
        rigid = set().union(*(free_vars(c.rhs) for c in pr if isinstance(c, Eq)))
        res = match(pr, rigid, sig=pf.signature)
    else:
        res = unify(pr)
    return {
        "steps": [str(s) for s in res.steps],
        "outcome": res.solution.key() if res.solved else f"{res.witness_kind}: {res.witness}",
        "normal_form": [str(c) for c in res.normal_form],
    }


def record() -> dict:
    out = {f"{engine}: {text}": traces(engine, text) for engine, text in GOALS}
    out.update({f"{solver}: {text}": derivation(solver, text) for solver, text in PROBLEMS})
    return out


def test_traces_match_recording():
    path = pathlib.Path(__file__).parent / "data" / "golden_traces.json"
    want = json.loads(path.read_text())
    got = record()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_cunify_trees_are_certificates():
    # the independent checker of tests/certificate.py passes every golden
    # c_unify tree, its generated atoms named so that they parse
    for solver, text in PROBLEMS:
        if solver == "cunify":
            pf = parse_problem_file(SYMS + text)
            pr = tuple(pf.constraints)
            res = solve(pf.signature, pr)
            check_tree(pf.signature, pr, res.tree)
            assert sum("outcome" in r for r in res.tree) == res.leaves


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, ensure_ascii=False)
    print()
