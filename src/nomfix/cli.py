"""Batch command line interface.

Reads a problem file (or stdin with '-'), runs the requested command, and
reports in text or JSON.  Exit codes: 0 when every goal is derivable or the
problem is solvable, 1 otherwise, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import chain, repeat

from . import __version__
from .cunify import c_unify
from .fixpoint import check_alpha_fixp, check_fixp
from .freshness import check_alpha_fresh, check_fresh
from .oracle import TermPool, enumerate_terms, ground_alpha_oracle, verify_solution
from .parser import FreshRequest, ProblemFile, parse_problem_file, parse_signature
from .printer import print_perm, print_term
from .syntax import (
    Atom,
    FixpointContext,
    FreshnessContext,
    NameGenerator,
    NomfixError,
    Permutation,
    Signature,
    Susp,
    Theory,
    Var,
    atoms_in,
    generator_avoiding,
)
from .translate import fixp_to_fresh, fresh_to_fixp
from .unify import Eq, Fix, Solution, unify


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nomfix",
        description="nominal constraint checking and unification",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="problem file, or - for stdin")
        p.add_argument("--json", action="store_true", help="report in JSON")
        p.add_argument("--trace", action="store_true", help="include derivation details")
        p.add_argument("--sig", metavar="FILE", help="extra signature file")
        p.add_argument(
            "--fresh-prefix",
            default="#c",
            metavar="S",
            help="prefix for generated atom names",
        )

    common(sub.add_parser("alpha", help="check equivalence constraints"))
    common(sub.add_parser("fresh", help="check freshness constraints"))
    common(sub.add_parser("fixp", help="check fixed-point constraints"))
    common(sub.add_parser("unify", help="solve a syntactic unification problem"))
    cu = sub.add_parser("cunify", help="solve modulo commutative symbols")
    common(cu)
    cu.add_argument("--tree", action="store_true", help="include the derivation tree")
    cu.add_argument("--dedup", action="store_true", help="drop equivalent solutions")
    common(sub.add_parser("translate", help="translate the context section"))
    common(sub.add_parser("selfcheck", help="run the built-in agreement suite"), needs_file=False)
    return ap


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (NomfixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read_problem(args) -> ProblemFile:
    sig = Signature(permissive=True)
    if args.sig:
        with open(args.sig) as fh:
            sig = parse_signature(fh.read(), sig)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    return parse_problem_file(text, sig)


def _gen_for(pf: ProblemFile, args) -> NameGenerator:
    contexts = [ctx for ctx in (pf.fresh_context, pf.fixp_context) if ctx is not None]
    return generator_avoiding(atoms_in(*pf.constraints, *contexts), prefix=args.fresh_prefix)


def _contexts(pf: ProblemFile, gen: NameGenerator):
    """The problem's context in both presentations."""
    if pf.fresh_context is not None:
        return pf.fresh_context, fresh_to_fixp(pf.fresh_context, gen)
    fixp = pf.fixp_context or FixpointContext()
    return fixp_to_fresh(fixp), fixp


_escape = json.encoder.encode_basestring_ascii


def _to_json(value) -> str:
    """json.dumps(value, indent=2), byte for byte, from an explicit stack so
    any depth encodes.  Strings go through the stdlib's escaper, which is C,
    and a list of strings only is joined in one call.  Dict keys must be
    strings."""
    out = []
    stack = [(iter((("", value),)), "", "")]
    while stack:
        items, ind, close = stack[-1]
        for prefix, v in items:
            out.append(prefix)
            if isinstance(v, str):
                out.append(_escape(v))
            elif v is None:
                out.append("null")
            elif v is True:
                out.append("true")
            elif v is False:
                out.append("false")
            elif isinstance(v, int):
                out.append(int.__repr__(v))
            elif isinstance(v, float):
                out.append(json.dumps(v))
            elif isinstance(v, (list, tuple, dict)):
                if not v:
                    out.append("{}" if isinstance(v, dict) else "[]")
                    continue
                inner = ind + "  "
                sep = ",\n" + inner
                seps = chain(("\n" + inner,), repeat(sep))  # what precedes each item
                if isinstance(v, dict):
                    out.append("{")
                    sub = ((s + _escape(k) + ": ", x) for s, (k, x) in zip(seps, v.items()))
                    stack.append((sub, inner, "\n" + ind + "}"))
                elif all(isinstance(x, str) for x in v):
                    out.append("[\n" + inner + sep.join(map(_escape, v)) + "\n" + ind + "]")
                    continue
                else:
                    out.append("[")
                    stack.append((zip(seps, v), inner, "\n" + ind + "]"))
                break
            else:
                raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        else:
            out.append(close)
            stack.pop()
    return "".join(out)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(_to_json(payload))
    else:
        for line in text_lines:
            print(line)


def _check_command(args) -> int:
    pf = _read_problem(args)
    gen = _gen_for(pf, args)
    fresh_ctx, fixp_ctx = _contexts(pf, gen)
    results = []
    lines = []
    traces = [] if args.trace else None
    for c in pf.constraints:
        if args.command == "alpha":
            if not isinstance(c, Eq):
                raise ValueError(f"'alpha' expects equations, found: {c}")
            ok = check_alpha_fixp(pf.signature, fixp_ctx, c.lhs, c.rhs, gen=gen, trace=traces)
        elif args.command == "fresh":
            if not isinstance(c, FreshRequest):
                raise ValueError(f"'fresh' expects freshness goals, found: {c}")
            ok = check_fresh(fresh_ctx, c.atom, c.term, trace=traces)
        else:
            if not isinstance(c, Fix):
                raise ValueError(f"'fixp' expects fixed-point goals, found: {c}")
            ok = check_fixp(pf.signature, fixp_ctx, c.perm, c.target, gen=gen, trace=traces)
        results.append({"constraint": str(c), "derivable": ok})
        lines.append(f"{c} : {'derivable' if ok else 'underivable'}")
    all_ok = all(r["derivable"] for r in results)
    payload = {"command": args.command, "derivable": all_ok, "results": results}
    if traces is not None:
        payload["trace"] = [t.to_dict() for t in traces]
        lines += [t.render() for t in traces]
    _emit(args, payload, lines)
    return 0 if all_ok else 1


def _fixp_entries(ctx: FixpointContext) -> list[dict]:
    return [{"perm": print_perm(p), "var": x.name} for p, x in ctx.entries()]


def _solution_payload(sol: Solution) -> dict:
    return {
        "context": _fixp_entries(sol.context),
        "subst": [
            {"var": x.name, "term": print_term(t)}
            for x, t in sorted(sol.subst.bindings.items())
        ],
    }


def _initial_problem(pf: ProblemFile, gen: NameGenerator):
    constraints = []
    for c in pf.constraints:
        if isinstance(c, FreshRequest):
            raise ValueError("freshness goals are not unification constraints")
        constraints.append(c)
    _, ctx = _contexts(pf, gen)
    for p, x in ctx.entries():
        constraints.append(Fix(p, Susp(Permutation.identity(), x)))
    return tuple(constraints)


def _unify_command(args) -> int:
    pf = _read_problem(args)
    gen = _gen_for(pf, args)
    pr = _initial_problem(pf, gen)
    if args.command == "unify":
        res = unify(pr, sig=pf.signature if pf.signature.symbols else None, gen=gen)
        if res.solved:
            payload = {"status": "solved", **_solution_payload(res.solution)}
            lines = [f"solved: {res.solution}"]
        else:
            payload = {
                "status": "unsolvable",
                "witness": {"constraint": str(res.witness), "kind": res.witness_kind},
            }
            lines = [f"unsolvable ({res.witness_kind}): {res.witness}"]
        if args.trace:
            payload["trace"] = [str(s) for s in res.steps]
            lines += ["  " + str(s) for s in res.steps]
        _emit(args, payload, lines)
        return 0 if res.solved else 1
    res = c_unify(pr, pf.signature, gen=gen, dedup=args.dedup)
    payload = {
        "status": res.status,
        "solutions": [_solution_payload(s) for s in res.solutions],
        "leaves": res.leaves,
    }
    lines = [f"{res.status}: {len(res.solutions)} solution(s)"]
    lines += [f"  {s}" for s in res.solutions]
    if getattr(args, "tree", False):
        if args.json:
            payload["tree"] = res.tree.to_dict()
        else:
            lines.append(res.tree.render())
    _emit(args, payload, lines)
    return 0 if res.solved else 1


def _translate_command(args) -> int:
    pf = _read_problem(args)
    gen = _gen_for(pf, args)
    records = []
    if pf.fresh_context is not None:
        ctx = fresh_to_fixp(pf.fresh_context, gen, records=records)
        kind, entries = "fixpoint", _fixp_entries(ctx)
    elif pf.fixp_context is not None:
        ctx = fixp_to_fresh(pf.fixp_context, records=records)
        kind, entries = "freshness", [{"atom": a.name, "var": x.name} for a, x in ctx.entries()]
    else:
        raise ValueError("no context section to translate")
    payload = {"kind": kind, "context": entries}
    lines = [str(ctx)]
    if args.trace:
        payload["records"] = [
            {"source": r.source, "target": r.target, "generated": [a.name for a in r.generated]}
            for r in records
        ]
        lines += [f"  {r.source}  =>  {r.target}" for r in records]
    _emit(args, payload, lines)
    return 0


def _selfcheck_command(args) -> int:
    seed = int(os.environ.get("NOMFIX_SEED", "0"))
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
    _emit(args, payload, [f"checked {checked} pairs, {disagreements} disagreements, "
                          f"{verified} solutions verified, {unverified} unverified: {'ok' if ok else 'FAILED'}"])
    return 0 if ok else 1


def _dispatch(args) -> int:
    if args.command in ("alpha", "fresh", "fixp"):
        return _check_command(args)
    if args.command in ("unify", "cunify"):
        return _unify_command(args)
    if args.command == "translate":
        return _translate_command(args)
    return _selfcheck_command(args)


if __name__ == "__main__":
    sys.exit(main())
