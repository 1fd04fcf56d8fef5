"""Unification modulo commutative function symbols.

Runs the same simplification rules as nomfix.unify but branches in two at
every application of a commutative symbol, exploring a finite derivation
tree.  Every successful leaf contributes one solution; the collected set is a
complete set of solutions for the problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import NameGenerator, Signature, Theory, atoms_in, check_well_formed, generator_avoiding
from .unify import (
    Eq,
    Solution,
    classify_normal_form,
    expand,
    extract_solution,
    is_more_general,
    measure_decreases,
    problem_measure,
    problem_vars,
)


@dataclass
class DerivationNode:
    """A node of the derivation tree: the problem at this point, the rule
    that produced the children, and for leaves the outcome."""

    problem: tuple
    rule: str | None = None
    children: list["DerivationNode"] = field(default_factory=list)
    leaf_kind: str | None = None  # "success" or a failure kind
    solution: Solution | None = None

    def to_dict(self) -> dict:
        out: dict = {"constraints": [str(c) for c in self.problem]}
        if self.rule:
            out["rule"] = self.rule
        if self.leaf_kind:
            out["leaf"] = self.leaf_kind
        if self.solution is not None:
            out["solution"] = self.solution.key()
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        head = "; ".join(str(c) for c in self.problem) or "(empty)"
        tag = f" [{self.rule}]" if self.rule else ""
        tag += f" <{self.leaf_kind}>" if self.leaf_kind else ""
        lines = ["  " * indent + head + tag]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)


@dataclass
class CUnifyResult:
    status: str  # "solved" | "unsolvable"
    solutions: list[Solution]
    tree: DerivationNode
    leaves: int

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
    for c in pr:
        for t in (c.lhs, c.rhs) if isinstance(c, Eq) else (c.target,):
            check_well_formed(sig, t, theories=(Theory.NONE, Theory.C))
    if gen is None:
        gen = generator_avoiding(atoms_in(*pr))
    root = DerivationNode(pr)
    solutions: list[Solution] = []
    leaves = 0
    todo = [(root, [])]
    while todo:
        node, steps = todo.pop()
        todo.extend(_expand_node(node, sig, gen, steps))
        if node.leaf_kind is not None:
            leaves += 1
            if node.solution is not None:
                solutions.append(node.solution)
    solutions.sort(key=Solution.key)
    if dedup:
        solutions = _dedup(solutions, problem_vars(pr), sig)
    status = "solved" if solutions else "unsolvable"
    return CUnifyResult(status, solutions, root, leaves)


def _expand_node(node: DerivationNode, sig, gen, steps):
    """Apply one rule, attach children, and return their (node, steps) pairs;
    classify the node as a leaf when no rule applies."""
    children = expand(node.problem, gen, sig=sig)
    if not children:
        failure = classify_normal_form(node.problem)
        if failure is None:
            node.leaf_kind = "success"
            node.solution = extract_solution(node.problem, steps)
        else:
            node.leaf_kind = failure[0]
        return []
    if __debug__:
        before = problem_measure(node.problem, by_height=True)
        for child, step in children:
            assert measure_decreases(before, problem_measure(child, by_height=True)), str(step)
    out = []
    for child, step in children:
        node.rule = step.rule
        sub = DerivationNode(child)
        node.children.append(sub)
        out.append((sub, steps + [step]))
    return out


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
