"""Answer checks for the nomfix benchmark.

``check(case, exit_code, output)`` returns None when the CLI's (or API's)
answer is the expected one and a short reason otherwise.  Ground verdicts
were decided by ``ground_alpha_oracle`` when the cases were built; unifiers
printed by the CLI are parsed back and handed to ``verify_solution``.  Text
output (no --json) is read back into the JSON payload's shape and checked
the same way.
"""

from __future__ import annotations

import json
import re

from nomfix.oracle import verify_solution
from nomfix.parser import parse_perm, parse_problem_file, parse_term
from nomfix.syntax import FixpointContext, Substitution, Var
from nomfix.unify import Solution

from families import Case, decide

# Generated atoms print as "#c<n>", which the parser rejects; renaming them
# to an unused plain prefix is a bijection on atoms, and verification is
# equivariant, so the renamed solution verifies exactly when the printed one does.
_GENERATED, _RENAMED = "#c", "zzgen"


def check(case: Case, code, out) -> str | None:
    if case.command == "api":
        return None if out == case.expect["value"] else f"api returned {out}"
    if code != case.expect["exit"]:
        return f"exit {code}, expected {case.expect['exit']}"
    if code == 2:
        return None
    payload = json.loads(out) if "--json" in case.flags else None
    if case.command in ("alpha", "fresh", "fixp"):
        return _check_verdicts(case, payload, out)
    if case.command == "unify":
        return _check_unify(case, payload, out)
    if case.command == "cunify":
        return _check_cunify(case, payload, out)
    return _check_translate(case, payload, out)


def _check_verdicts(case: Case, payload, out: str) -> str | None:
    if payload is not None:
        got = [r["derivable"] for r in payload["results"]]
    else:
        got = [line.endswith(": derivable") for line in out.splitlines()[: len(case.goals) or 1]]
    want = case.expect.get("derivable")
    if want is None:  # corpus files: the exit code carries the verdict
        return None
    if got != want:
        return f"verdicts {got}, expected {want}"
    if case.ground:
        oracle = [decide(case.sig, g) for g in case.goals]
        if oracle != want:
            return f"oracle says {oracle}, construction says {want}"
    return None


def _text_solution(line: str) -> dict:
    """``{<perm> fix X, ...} |- {X -> <term>, ...}`` (``Solution.key``) as a
    JSON solution entry.  Permutations hold no commas, and no term holds
    ``->``, so the entries split at the commas that precede the next one."""
    ctx, _, subst = line.strip().partition(" |- ")
    context = [dict(zip(("perm", "var"), e.rsplit(" fix ", 1))) for e in _entries(ctx, ", ")]
    bindings = [dict(zip(("var", "term"), e.split(" -> ", 1))) for e in _entries(subst, r", (?=\w+ -> )")]
    return {"context": context, "subst": bindings}


def _entries(braced: str, separator: str) -> list[str]:
    inner = braced[1:-1]
    return re.split(separator, inner) if inner else []


def _solution(case: Case, entry: dict) -> Solution:
    def plain(text: str) -> str:
        return text.replace(_GENERATED, _RENAMED)

    pairs = frozenset((parse_perm(plain(c["perm"])), Var(c["var"])) for c in entry["context"])
    subst = {Var(b["var"]): parse_term(plain(b["term"]), case.sig) for b in entry["subst"]}
    return Solution(FixpointContext(pairs), Substitution(subst))


def _problem(case: Case) -> tuple:
    if case.goals:
        return case.goals
    return tuple(parse_problem_file(case.text, case.sig).constraints)


def _check_unify(case: Case, payload, out: str) -> str | None:
    want = case.expect
    if payload is None:
        first = out.splitlines()[0]
        status, _, rest = first.partition(": ")
        if status == "solved":
            payload = {"status": "solved", **_text_solution(rest)}
        elif m := re.fullmatch(r"unsolvable \((.+)\)", status):
            payload = {"status": "unsolvable", "witness": {"kind": m[1]}}
        else:
            return f"got {first!r}"
    if want.get("status") is None:  # corpus file: exit code already checked
        want = dict(want, status=payload["status"])
    if payload["status"] != want["status"]:
        return f"status {payload['status']}, expected {want['status']}"
    if payload["status"] == "unsolvable":
        kind = payload["witness"]["kind"]
        return None if "kind" not in want or kind == want["kind"] else f"witness {kind}, expected {want['kind']}"
    if not verify_solution(case.sig, _problem(case), _solution(case, payload)):
        return "unifier does not verify"
    return None


def _check_cunify(case: Case, payload, out: str) -> str | None:
    want = case.expect
    if payload is None:
        lines = out.splitlines()
        m = re.fullmatch(r"(\w+): (\d+) solution\(s\)", lines[0])
        if m is None:
            return f"got {lines[0]!r}"
        solutions = [_text_solution(line) for line in lines[1 : 1 + int(m[2])]]
        payload = {"status": m[1], "solutions": solutions}
        want = {k: v for k, v in want.items() if k != "leaves"}  # text mode does not print them
    if payload["status"] != want.get("status", payload["status"]):
        return f"status {payload['status']}, expected {want['status']}"
    for key in ("solutions", "leaves"):
        if key not in want:
            continue
        got = len(payload["solutions"]) if key == "solutions" else payload["leaves"]
        if got != want[key]:
            return f"{key} {got}, expected {want[key]}"
    if payload["status"] == "solved" and not payload["solutions"]:
        return "solved without solutions"
    problem = _problem(case)
    for entry in payload["solutions"]:
        if not verify_solution(case.sig, problem, _solution(case, entry)):
            return "a solution does not verify"
    return None


def _check_translate(case: Case, payload, out: str) -> str | None:
    want = case.expect
    if "entries" not in want:  # corpus file
        return None
    if payload is None:
        entries = _entries(out.splitlines()[0], ", ")
        if not entries:  # "{}" prints the same for both kinds
            payload = {"kind": want["kind"], "context": []}
        elif " fresh " in entries[0]:
            payload = {"kind": "freshness", "context": [dict(zip(("atom", "var"), e.split(" fresh "))) for e in entries]}
        else:
            payload = {"kind": "fixpoint", "context": [dict(zip(("perm", "var"), e.rsplit(" fix ", 1))) for e in entries]}
    if payload["kind"] != want["kind"]:
        return f"translated to {payload['kind']}, expected {want['kind']}"
    if want["kind"] == "freshness":
        got = sorted((e["atom"], e["var"]) for e in payload["context"])
    else:
        got = []
        for e in payload["context"]:
            perm = e["perm"].strip("()").split()
            user = [a for a in perm if not a.startswith(_GENERATED)]
            if len(perm) != 2 or len(user) != 1:
                return f"bad translated entry {e}"
            got.append((user[0], e["var"]))
        got.sort()
    return None if got == want["entries"] else f"entries {got}, expected {want['entries']}"
