"""Unification modulo commutative function symbols.

Runs the search of nomfix.unify with the signature's commutative symbols,
so that it branches in two at every application of one.  Every successful
leaf contributes one solution; the collected set is a complete set of
solutions for the problem.  The search keeps each leaf's chain of steps,
and the finite derivation tree it explored is built from those chains the
first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .syntax import NameGenerator, Signature, Substitution, Theory
from .unify import Eq, Fix, Problem, SimplStep, Solution, _derive, constraint_vars, is_more_general, problem_vars


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
        """The tree as nested dicts; an explicit stack, so any depth
        converts."""
        top: dict = {}
        said: dict = {}
        stack = [(self, top)]
        while stack:
            node, out = stack.pop()
            out["constraints"] = _texts(node.problem, said)
            if node.rule:
                out["rule"] = node.rule
            if node.leaf_kind:
                out["leaf"] = node.leaf_kind
            if node.solution is not None:
                out["solution"] = node.solution.key()
            if node.children:
                out["children"] = kids = [{} for _ in node.children]
                stack.extend(zip(node.children, kids))
        return top

    def render(self, indent: int = 0) -> str:
        """The tree, one node per line, indented by depth; an explicit
        stack, so any depth renders."""
        lines = []
        said: dict = {}
        stack = [(self, indent)]
        while stack:
            node, depth = stack.pop()
            head = "; ".join(_texts(node.problem, said)) or "(empty)"
            tag = f" [{node.rule}]" if node.rule else ""
            tag += f" <{node.leaf_kind}>" if node.leaf_kind else ""
            lines.append("  " * depth + head + tag)
            stack.extend((c, depth + 1) for c in reversed(node.children))
        return "\n".join(lines)


def _texts(pr: Problem, said: dict) -> list[str]:
    """str of each constraint of pr, kept in said by id: the nodes of a
    tree share most of their constraints."""
    return [said.get(id(c)) or said.setdefault(id(c), str(c)) for c in pr]


def _replay(pr: Problem, step: SimplStep) -> Problem:
    """The problem step leads to from pr, in the order unify._State keeps:
    the consumed constraint removed, then the produced constraints put
    first, or the binding applied in place to the constraints that mention
    its variable.

    The consumed constraint is the first one in pr equal to it: a step takes
    the first reducible constraint in problem order, else the first
    instantiable one, and equal constraints are alike in both respects.
    Bindings rebuild constraints, so identity would not find it."""
    i = pr.index(step.consumed)
    rest = pr[:i] + pr[i + 1 :]
    if step.binding is None:
        return step.produced + rest
    x, t = step.binding
    theta = Substitution({x: t})
    return tuple(
        c if x not in constraint_vars(c)
        else Eq(theta(c.lhs), theta(c.rhs)) if isinstance(c, Eq)
        else Fix(c.perm, theta(c.target))
        for c in rest
    )


def derivation_tree(pr: Problem, leaves) -> DerivationNode:
    """The derivation tree of pr, from its leaves in the order unify._search
    yields them, each given as (path, failure, solution).

    The tree is the union of the leaves' paths.  A node is known by its path
    object, which all its descendants share.  The search visits the last
    child first, so the leaves meet a node's children in reverse expansion
    order.  Each node's problem is its parent's with the step replayed; an
    explicit stack, so any depth builds."""
    below: dict[int, list] = {}  # id(path) -> child paths, last child first
    ends = {}
    for path, failure, solution in leaves:
        ends[id(path)] = ("success" if failure is None else failure[0]), solution
        while path is not None:
            parent = path[1]
            known = id(parent) in below
            below.setdefault(id(parent), []).append(path)
            if known:
                break
            path = parent
    root = DerivationNode(pr)
    stack = [(root, None)]
    while stack:
        node, path = stack.pop()
        if id(path) in ends:
            node.leaf_kind, node.solution = ends[id(path)]
        for sub in reversed(below.get(id(path), ())):
            step = sub[0]
            node.rule = step.rule
            child = DerivationNode(_replay(node.problem, step))
            node.children.append(child)
            stack.append((child, sub))
    return root


@dataclass
class CUnifyResult:
    """The solutions and the number of leaves of a c_unify search.  tree,
    the derivation tree, is built on first read from the problem and the
    leaves' (path, failure, solution) chains kept here."""

    status: str  # "solved" | "unsolvable"
    solutions: list[Solution]
    problem: Problem = field(repr=False)
    outcomes: list = field(repr=False)

    @property
    def leaves(self) -> int:
        return len(self.outcomes)

    @cached_property
    def tree(self) -> DerivationNode:
        return derivation_tree(self.problem, self.outcomes)

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
