"""Batch command line interface.

Reads a problem file (or stdin with '-'), runs the requested command, and
reports in text or JSON.  Exit codes: 0 when every goal is derivable or the
problem is solvable, 1 otherwise, 2 on input errors, 3 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .alpha import TraceNode, trace_line
from .cunify import c_unify, tree_line, tree_records
from .fixpoint import check_alpha_fixp, check_fixp
from .freshness import check_alpha_fresh, check_fresh
from .oracle import TermPool, enumerate_terms, ground_alpha_oracle, verify_solution
from .parser import FreshRequest, ProblemFile, parse_problem_file, parse_signature
from .printer import print_perm, print_records
from .syntax import (
    GENERATED_PREFIX,
    Atom,
    FixpointContext,
    FreshnessContext,
    NameGenerator,
    NomfixError,
    Signature,
    Theory,
    Var,
    atoms_in,
    generator_avoiding,
)
from .translate import fixp_to_fresh, fresh_to_fixp
from .unify import Eq, Fix, Solution, _fixes, unify


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nomfix",
        description="nominal constraint checking and unification",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("file", help="problem file, or - for stdin")
        p.add_argument("--json", action="store_true", help="report in JSON")
        p.add_argument(
            "--trace",
            action="store_true",
            help="include the derivation: one line, or with --json one record, per judgement or step",
        )
        p.add_argument("--sig", metavar="FILE", help="extra signature file")
        p.add_argument("--fresh-prefix", default=GENERATED_PREFIX, metavar="S", help="prefix for generated atom names")

    common(sub.add_parser("alpha", help="check equivalence constraints"), _alpha_command)
    common(sub.add_parser("fresh", help="check freshness constraints"), _fresh_command)
    common(sub.add_parser("fixp", help="check fixed-point constraints"), _fixp_command)
    common(sub.add_parser("unify", help="solve a syntactic unification problem"), _unify_command)
    cu = sub.add_parser("cunify", help="solve modulo commutative symbols")
    common(cu, _cunify_command)
    cu.add_argument(
        "--tree",
        action="store_true",
        help="include the derivation tree: the problem, then one line, or with --json one record, per part and per step",
    )
    cu.add_argument("--dedup", action="store_true", help="drop equivalent solutions")
    common(sub.add_parser("translate", help="translate the context section"), _translate_command)
    sc = sub.add_parser("selfcheck", help="run the built-in agreement suite")
    sc.set_defaults(run=_selfcheck_command)
    sc.add_argument("--json", action="store_true", help="report in JSON")
    return ap


def main(argv=None) -> int:
    """Run the command argv names, and write the (exit code, payload, lines) it returns."""
    args = _build_arg_parser().parse_args(argv)
    try:
        code, payload, lines = args.run(args)
        _emit(args, payload, lines)
        return code
    except (NomfixError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of nomfix, never read as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _read_problem(args) -> tuple[ProblemFile, NameGenerator]:
    """The problem file, and a generator of atoms new for it."""
    sig = Signature(permissive=True)
    if args.sig:
        with open(args.sig, encoding="utf-8") as fh:
            sig = parse_signature(fh.read(), sig)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    pf = parse_problem_file(text, sig)
    parts = pf.constraints if pf.context is None else [*pf.constraints, pf.context]
    return pf, generator_avoiding(atoms_in(*parts), prefix=args.fresh_prefix)


def _fixpoint_context(pf: ProblemFile, gen: NameGenerator) -> FixpointContext:
    """The file's context as fixed points: a freshness entry takes a new atom from gen."""
    if isinstance(pf.context, FreshnessContext):
        return fresh_to_fixp(pf.context, gen)
    return pf.context or FixpointContext()


def _emit(args, payload, lines) -> None:
    """Print payload() as JSON, or else each of lines(); only one is built.
    The JSON has the bytes of print(json.dumps(payload(), indent=2)), written
    a piece per top-level value and per element of a top-level list or
    iterator, so a tree or trace given as an iterator is never held whole.
    A reader that closes the pipe early (`| head`) ends the output, not the
    command; stdout then points at os.devnull, so the flush at exit succeeds."""
    write = sys.stdout.write
    try:
        if args.json:
            head = "{"
            for key, value in payload().items():
                write(f"{head}\n  {encode_basestring_ascii(key)}: ")
                head = ","
                if isinstance(value, (list, tuple, Iterator)):
                    sep = "["
                    for x in value:
                        write(f"{sep}\n    {_json(x, '    ')}")
                        sep = ","
                    write("[]" if sep == "[" else "\n  ]")
                else:
                    write(_json(value, "  "))
            write("{}\n" if head == "{" else "\n}\n")
        else:
            for line in lines():
                write(f"{line}\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class _Written(str):
    """JSON text already written at the indentation where it goes, which
    _json passes through."""

    __slots__ = ()


def _json(v, pad: str) -> str:
    """The text of v in json.dumps(v, indent=2), at indentation pad.  Dicts
    (string keys), lists and tuples write members that are exactly str or int,
    or constants, inline and recurse into others, a frame per level; a value
    other than those, a string, an int or a constant is json.dumps(v)'s, and
    a _Written is itself."""
    if isinstance(v, str):
        return v if type(v) is _Written else encode_basestring_ascii(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = pad + "  "
    if isinstance(v, dict):
        items, brackets = [f"{encode_basestring_ascii(k)}: " + (
            encode_basestring_ascii(x) if type(x) is str else "true" if x is True else "false" if x is False
            else "null" if x is None else int.__repr__(x) if type(x) is int else _json(x, inner))
            for k, x in v.items()], "{}"
    elif isinstance(v, (list, tuple)):
        items, brackets = [
            encode_basestring_ascii(x) if type(x) is str else "true" if x is True else "false" if x is False
            else "null" if x is None else int.__repr__(x) if type(x) is int else _json(x, inner) for x in v], "[]"
    else:
        return json.dumps(v)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}" if items else brackets


def _alpha_command(args):
    pf, gen = _read_problem(args)
    ctx = _fixpoint_context(pf, gen)
    return _check_goals(args, pf.constraints, Eq, "equations",
                        lambda c, trace: check_alpha_fixp(pf.signature, ctx, c.lhs, c.rhs, gen=gen, trace=trace))


def _fresh_command(args):
    pf, _ = _read_problem(args)
    ctx = fixp_to_fresh(pf.context) if isinstance(pf.context, FixpointContext) else pf.context or FreshnessContext()
    return _check_goals(args, pf.constraints, FreshRequest, "freshness goals",
                        lambda c, trace: check_fresh(ctx, c.atom, c.term, trace=trace))


def _fixp_command(args):
    pf, gen = _read_problem(args)
    ctx = _fixpoint_context(pf, gen)
    return _check_goals(args, pf.constraints, Fix, "fixed-point goals",
                        lambda c, trace: check_fixp(pf.signature, ctx, c.perm, c.target, gen=gen, trace=trace))


def _check_goals(args, goals, kind, noun: str, check):
    """Decide each goal, of type kind, with check(goal, trace)."""
    verdicts = []
    traces = [] if args.trace else None
    for c in goals:
        if not isinstance(c, kind):
            raise NomfixError(f"'{args.command}' expects {noun}, found: {c}")
        verdicts.append((str(c), check(c, traces)))
    all_ok = all(ok for _, ok in verdicts)
    trace = {} if traces is None else {"trace": map(TraceNode.record, traces)}
    return (
        0 if all_ok else 1,
        lambda: {"command": args.command, "derivable": all_ok,
                 "results": [{"constraint": c, "derivable": ok} for c, ok in verdicts], **trace},
        lambda: chain((f"{c} : {'derivable' if ok else 'underivable'}" for c, ok in verdicts),
                      print_records(trace.get("trace", ()), trace_line)),
    )


def _fixp_entry(p, x: Var) -> dict:
    return {"perm": print_perm(p), "var": x.name}


def _solution_writer(pad: str):
    """A function from a solution to its --json members, "context" and
    "subst", lists whose objects go at indentation pad.  Each binding's and
    each context entry's object is written once, by _json, and shared by every
    solution that holds it: c_unify's combinations hold their parts' binding
    pairs and context entries."""
    memo: dict[tuple, _Written] = {}  # a context entry or (name, text) pair -> its object

    def members(sol: Solution) -> dict:
        return {
            "context": [memo.get(e) or memo.setdefault(e, _Written(_json(_fixp_entry(*e), pad)))
                        for e in sol.context.entries()],
            "subst": [memo.get(b) or memo.setdefault(b, _Written(_json({"var": b[0], "term": b[1]}, pad)))
                      for b in sol.bindings()],
        }

    return members


def _initial_problem(pf: ProblemFile, gen: NameGenerator) -> tuple:
    """The file's constraints, then its context as fixed-point constraints."""
    if any(isinstance(c, FreshRequest) for c in pf.constraints):
        raise NomfixError("freshness goals are not unification constraints")
    return (*pf.constraints, *_fixes(_fixpoint_context(pf, gen).entries()))


def _unify_command(args):
    pf, gen = _read_problem(args)
    res = unify(_initial_problem(pf, gen), sig=pf.signature, gen=gen)
    steps = [str(s) for s in res.steps] if args.trace else None

    def payload():
        if res.solved:
            # top-level members: their lists' objects are 2 levels deep
            out = {"status": "solved", **_solution_writer("    ")(res.solution)}
        else:
            out = {"status": "unsolvable", "witness": {"constraint": str(res.witness), "kind": res.witness_kind}}
        return out if steps is None else {**out, "trace": steps}

    def lines():
        head = f"solved: {res.solution}" if res.solved else f"unsolvable ({res.witness_kind}): {res.witness}"
        return [head] + ["  " + s for s in steps or ()]

    return 0 if res.solved else 1, payload, lines


def _cunify_command(args):
    """--trace is accepted and ignored: the derivation is --tree."""
    pf, gen = _read_problem(args)
    res = c_unify(_initial_problem(pf, gen), pf.signature, gen=gen, dedup=args.dedup)
    tree = {"tree": tree_records(res.problem, res.parts)} if args.tree else {}
    return (
        0 if res.solved else 1,
        # a solution is an element of a top-level list, so its lists' objects are 4 levels deep
        lambda: {"status": res.status, "solutions": map(_solution_writer("        "), res.solutions),
                 "leaves": res.leaves, **tree},
        lambda: chain([f"{res.status}: {len(res.solutions)} solution(s)"], (f"  {s}" for s in res.solutions),
                      print_records(tree.get("tree", ()), tree_line)),
    )


def _translate_command(args):
    pf, gen = _read_problem(args)
    records = []
    if isinstance(pf.context, FreshnessContext):
        ctx = fresh_to_fixp(pf.context, gen, records=records)
        kind, entries = "fixpoint", lambda ctx: [_fixp_entry(p, x) for p, x in ctx.entries()]
    elif pf.context is not None:
        ctx = fixp_to_fresh(pf.context, records=records)
        kind, entries = "freshness", lambda ctx: [{"atom": a.name, "var": x.name} for a, x in ctx.entries()]
    else:
        raise NomfixError("no context section to translate")
    shown = records if args.trace else ()

    def payload():
        out = {"kind": kind, "context": entries(ctx)}
        if args.trace:
            out["records"] = [
                {"source": r.source, "target": r.target, "generated": [a.name for a in r.generated]} for r in shown
            ]
        return out

    return 0, payload, lambda: chain([str(ctx)], (f"  {r.source}  =>  {r.target}" for r in shown))


def _selfcheck_command(args):
    seed = os.environ.get("NOMFIX_SEED", "0")
    try:
        seed = int(seed)
    except ValueError:
        raise NomfixError(f"NOMFIX_SEED is not an integer: {seed!r}") from None
    rng = random.Random(seed)
    sig = Signature({"f": Theory.NONE, "+": Theory.C, "*": Theory.AC, "cat": Theory.A})
    a, b = Atom("a"), Atom("b")
    pool = TermPool(atoms=(a, b), signature=sig, max_depth=2)
    terms = enumerate_terms(pool)
    sample = rng.sample(terms, min(len(terms), 120))
    disagreements = 0
    checked = 0
    for s in sample:
        for t in rng.sample(terms, 25):
            want = ground_alpha_oracle(sig, s, t)
            got = check_alpha_fixp(sig, FixpointContext(), s, t)
            got2 = check_alpha_fresh(sig, FreshnessContext(), s, t)
            checked += 1
            if want != got or want != got2:
                disagreements += 1
    # unification results must verify; counted, not asserted, so that
    # python -O reports an unsound unifier too
    verified = unverified = 0
    usig = Signature({"f": Theory.NONE})
    upool = TermPool(atoms=(a, b), variables=(Var("X"), Var("Y")), signature=usig, max_depth=1)
    uterms = enumerate_terms(upool)
    for _ in range(60):
        s, t = rng.choice(uterms), rng.choice(uterms)
        res = unify((Eq(s, t),))
        if res.solved:
            if verify_solution(usig, (Eq(s, t),), res.solution):
                verified += 1
            else:
                unverified += 1
    ok = disagreements == 0 and unverified == 0
    payload = {
        "seed": seed,
        "pairs_checked": checked,
        "disagreements": disagreements,
        "solutions_verified": verified,
        "unverified": unverified,
        "ok": ok,
    }
    return 0 if ok else 1, lambda: payload, lambda: [f"checked {checked} pairs, {disagreements} disagreements, "
                                                     f"{verified} solutions verified, {unverified} unverified: "
                                                     f"{'ok' if ok else 'FAILED'}"]


if __name__ == "__main__":
    sys.exit(main())
