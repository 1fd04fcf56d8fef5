"""Unification modulo commutative function symbols.

Runs the search of nomfix.unify with the signature's commutative symbols,
so that it branches in two at every application of one, once no other
step applies.  Every successful leaf contributes one solution; the
collected set is a complete set of solutions for the problem.  The search
keeps each leaf's chain of steps, and the finite derivation tree it
explored is read off those chains, as flat records, on first use.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .printer import print_term
from .syntax import NameGenerator, Signature, Theory, _Fields
from .unify import Problem, Solution, _derive, is_more_general, problem_vars, step_line


def tree_records(pr: Problem, leaves) -> Iterator[dict]:
    """The derivation tree of pr as flat records, from its leaves in the
    order unify._search yields them, each given as (path, failure,
    solution).

    The tree is the union of the leaves' paths; a node is known by its path
    object, which all its descendants share.  The records come in pre-order,
    children in expansion order, each as {id, parent, rule, ...}: id is its
    position and parent its parent's.  The root holds the problem; every
    other record holds the step that led to it, the consumed constraint and
    either the produced constraints or the binding.  A leaf adds its
    outcome, "success" or the failure kind, and a success its solution.
    The search visits the last child first, so its leaves, read in reverse,
    come in pre-order: each leaf's path adds the nodes below the deepest one
    already written, top down.  Each record is built when it is asked for
    and not kept here."""
    ids: dict[int, int] = {}  # id(path) -> its record's id
    said: dict[int, str] = {}  # id(constraint) -> its text: a step consumes what an earlier one produced

    def text(c) -> str:
        return said.get(id(c)) or said.setdefault(id(c), str(c))

    for leaf, failure, solution in reversed(leaves):
        new, path = [], leaf
        while id(path) not in ids:
            new.append(path)
            if path is None:
                break
            path = path[1]
        for path in reversed(new):
            ids[id(path)] = n = len(ids)
            if path is None:
                rec = {"id": n, "parent": None, "rule": None, "problem": list(map(text, pr))}
            else:
                step = path[0]
                rec = {"id": n, "parent": ids[id(path[1])], "rule": step.rule, "consumed": text(step.consumed)}
                if step.binding is None:
                    rec["produced"] = list(map(text, step.produced))
                else:
                    x, t = step.binding
                    rec["binding"] = {"var": x.name, "term": print_term(t)}
            if path is leaf:
                rec["outcome"] = "success" if failure is None else failure[0]
                if solution is not None:
                    rec["solution"] = solution.key()
            yield rec


def tree_line(record: dict) -> str:
    """The text of a tree record: the problem at the root, else the step
    as unify's trace prints it; a leaf's outcome in angle brackets."""
    if record["parent"] is None:
        line = "; ".join(record["problem"]) or "(empty)"
    else:
        b = record.get("binding")
        line = step_line(record["rule"], record["consumed"], b and (b["var"], b["term"]), record.get("produced"))
    return f"{line} <{record['outcome']}>" if "outcome" in record else line


class CUnifyResult(_Fields):
    """The solutions and the number of leaves of a c_unify search.  tree,
    the derivation tree as tree_records, is read on first use off the
    leaves' (path, failure, solution) chains kept here.  It has no slots:
    cached_property keeps tree in its __dict__."""

    __match_args__ = ("status", "solutions", "problem", "outcomes")

    def __init__(self, status: str, solutions: list[Solution], problem: Problem, outcomes: list):
        self.status = status  # "solved" | "unsolvable"
        self.solutions, self.problem, self.outcomes = solutions, problem, outcomes

    def __repr__(self) -> str:
        return f"CUnifyResult(status={self.status!r}, solutions={self.solutions!r})"

    @property
    def leaves(self) -> int:
        return len(self.outcomes)

    @cached_property
    def tree(self) -> list[dict]:
        return list(tree_records(self.problem, self.outcomes))

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def c_unify(
    pr,
    sig: Signature,
    gen: NameGenerator | None = None,
    dedup: bool = False,
) -> CUnifyResult:
    """Solve a unification problem over plain and commutative symbols."""
    pr = tuple(pr)
    leaves = _derive(pr, sig, gen, (Theory.NONE, Theory.C))
    outcomes = [(path, failure, solution) for _, path, failure, solution in leaves]
    solutions = sorted((s for *_, s in outcomes if s is not None), key=Solution.key)
    if dedup:
        solutions = _dedup(solutions, problem_vars(pr), sig)
    status = "solved" if solutions else "unsolvable"
    return CUnifyResult(status, solutions, pr, outcomes)


def _dedup(solutions: list[Solution], variables, sig) -> list[Solution]:
    kept: list[Solution] = []
    for sol in solutions:
        if any(
            is_more_general(prev, sol, variables, sig)
            and is_more_general(sol, prev, variables, sig)
            for prev in kept
        ):
            continue
        kept.append(sol)
    return kept
