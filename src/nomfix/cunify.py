"""Unification modulo commutative function symbols.

Runs the search of nomfix.unify with the signature's commutative symbols,
so that it branches in two at every application of one, once no other
step applies.  Every successful leaf contributes one solution; the
collected set is a complete set of solutions for the problem.

The problem is first split into parts that share no variable (union-find
over the constraints' variables), and each part is searched on its own;
the parts draw their new atoms from one generator, so no two of them
generate the same atom, and none is an atom of the problem.  The problem's
solutions are then the product of the parts' (the connected components of
#SAT model counting: Bayardo and Pehoushek, AAAI 2000).

- Each combination is a solution.  A part's search sees only its own
  constraints, and no rule introduces a variable, so a part's solution
  binds and constrains only the part's variables and its terms mention
  only them.  The union of the parts' contexts and of their substitutions
  so applies to each constraint as its own part's solution does, under a
  larger context, and derivations stay derivations under a larger context.
- The product is complete.  A solution of the problem solves each part, so
  each part's complete set has a solution more general than it over the
  part's variables.  Their instantiating substitutions act on disjoint
  variables, and the new atoms they must read as new are disjoint, so
  their union instantiates the combination to the given solution.
- The leaves multiply.  No branch is cut early, and a part's steps neither
  enable nor disable another part's, so a search over the whole problem
  would reach one leaf per choice of a leaf in each part.

So c_unify reports the tree it searched, an AND/OR tree (Dechter and
Mateescu, AIJ 2007): below the root, an AND node per part, and under each
the part's own tree, whose splits are OR nodes; a one-part problem has no
AND node, and its tree is the whole problem's.  The tree's leaves are
the parts', their sum; CUnifyResult.leaves counts their product, the
leaves a search of the whole problem reaches.  The tree's records are made
only when they are read, so the search and the tree cost the sum of the
parts', and only solutions, the product of the parts' solutions, can be
exponential.

With dedup, equivalent solutions (each more general than the other) are
dropped within each part, and only the kept ones are combined, as
equivalence splits over the parts.  Let s and t combine s_i and t_i.  A
substitution that carries s to t restricts, on part i's variables, to one
that carries s_i to t_i: X s_i and X t_i mention only those variables, and
a judgement on them reads only t's constraints on them, which are t_i's.
The union of such substitutions, on disjoint variables, carries s to t.
So s is more general than t exactly when each s_i is than t_i, each class
of the product is a product of the parts' classes, and c_unify keeps of
each the combination of the pieces that come first by key in their parts.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import chain, product
from math import prod

from .printer import print_term
from .syntax import (
    FixpointContext,
    NameGenerator,
    Signature,
    Substitution,
    Theory,
    _Fields,
    atoms_in,
    generator_avoiding,
)
from .unify import Problem, Solution, _derive, is_more_general, problem_vars, step_line


def tree_records(pr: Problem, parts) -> Iterator[dict]:
    """The derivation tree of pr as flat records, read off its parts as in
    CUnifyResult.parts: below the root, each part's own tree.

    The records come in pre-order, children in expansion order, each as
    {id, parent, rule, ...}: id is its position and parent its parent's.
    The root holds the problem.  A problem of two or more parts has an AND
    node per part below it, in order, {rule: "part", problem: the part's
    constraints}, and each part's tree hangs from its node as it would
    from the root of the part alone; a one-part problem has none.  Every
    other record holds the step that led to it, the consumed constraint
    and either the produced constraints or the binding.  A node of a
    part's tree is known by its path object, which all its descendants
    share.  A part's search visits the last child first, so its leaves,
    read in reverse, come in pre-order: each adds the nodes below the
    deepest one already written, top down, and its outcome, "success" or
    the failure kind, and a success its part's solution, go on the last
    record it adds (on the part's node, when the part takes no step)."""
    said: dict[int, str] = {}  # id(constraint) -> its text: a step consumes what an earlier one produced

    def text(c) -> str:
        return said.get(id(c)) or said.setdefault(id(c), str(c))

    made = [{"id": 0, "parent": None, "rule": None, "problem": list(map(text, pr))}]
    n = 0
    for indices, leaves in parts:
        if len(parts) > 1:
            n += 1
            made.append({"id": n, "parent": 0, "rule": "part", "problem": [text(pr[i]) for i in indices]})
        node, ids = n, {}  # the part's node; id(path) -> its record's id
        for path, failure, solution in reversed(leaves):
            new = []
            while path is not None and id(path) not in ids:
                new.append(path)
                path = path[1]
            top = node if path is None else ids[id(path)]
            for path in reversed(new):
                n += 1
                ids[id(path)] = n
                step = path[0]
                rec = {"id": n, "parent": top, "rule": step.rule, "consumed": text(step.consumed)}
                if step.binding is None:
                    rec["produced"] = list(map(text, step.produced))
                else:
                    x, t = step.binding
                    rec["binding"] = {"var": x.name, "term": print_term(t)}
                made.append(rec)
                top = n
            made[-1]["outcome"] = "success" if failure is None else failure[0]
            if solution is not None:
                made[-1]["solution"] = solution.key()
            yield from made
            made = []


def tree_line(record: dict) -> str:
    """The text of a tree record: the problem at the root, [part] and the
    part's constraints at an AND node, else the step as unify's trace
    prints it; a leaf's outcome in angle brackets."""
    if record["parent"] is None:
        line = "; ".join(record["problem"]) or "(empty)"
    elif record["rule"] == "part":
        line = "[part] " + "; ".join(record["problem"])
    else:
        b = record.get("binding")
        line = step_line(record["rule"], record["consumed"], b and (b["var"], b["term"]), record.get("produced"))
    return f"{line} <{record['outcome']}>" if "outcome" in record else line


class CUnifyResult(_Fields):
    """The solutions of a c_unify search and its parts, off which the rest
    is read.  A part is (indices, leaves): its constraints' places in the
    problem, and its search's leaves as (path, failure, solution).

    leaves is the product of the parts' leaf counts: the leaves of a
    search of the whole problem as one part, as the module docstring
    argues, not the sum that the parts' searches reached.  tree, the
    derivation tree as tree_records, is read on first use.  It has no
    slots: cached_property keeps tree in its __dict__."""

    __match_args__ = ("status", "solutions", "problem", "parts")

    def __init__(self, status: str, solutions: list[Solution], problem: Problem, parts: list):
        self.status = status  # "solved" | "unsolvable"
        self.solutions, self.problem, self.parts = solutions, problem, parts

    def __repr__(self) -> str:
        return f"CUnifyResult(status={self.status!r}, solutions={self.solutions!r})"

    @property
    def leaves(self) -> int:
        return prod(len(leaves) for _, leaves in self.parts)

    @cached_property
    def tree(self) -> list[dict]:
        return list(tree_records(self.problem, self.parts))

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def c_unify(
    pr,
    sig: Signature,
    gen: NameGenerator | None = None,
    dedup: bool = False,
) -> CUnifyResult:
    """Solve a unification problem over plain and commutative symbols: each
    part on its own, as the module docstring sets out."""
    pr = tuple(pr)
    if gen is None:
        gen = generator_avoiding(atoms_in(*pr))
    groups = _parts(pr)
    # every part is checked before any is searched
    searches = [_derive([pr[i] for i in indices], sig, gen, (Theory.NONE, Theory.C)) for indices in groups]
    parts = [(indices, [(path, failure, sol) for _, path, failure, sol in leaves])
             for indices, leaves in zip(groups, searches)]
    solved = ([sol for _, _, sol in leaves if sol is not None] for _, leaves in parts)
    if dedup:
        solved = [_dedup(sorted(sols, key=Solution.key), problem_vars([pr[i] for i in indices]), sig)
                  for indices, sols in zip(groups, solved)]
    solutions = sorted(map(_combine, product(*solved)), key=Solution.key)
    status = "solved" if solutions else "unsolvable"
    return CUnifyResult(status, solutions, pr, parts)


def _parts(pr: Problem) -> list[list[int]]:
    """The indices of pr's constraints, in parts that share no variable,
    each in input order and the parts in the order of their first
    constraints: union-find over the constraints' variables.  An empty
    problem is one empty part."""
    up = list(range(len(pr)))

    def root(i: int) -> int:
        while up[i] != i:
            up[i] = i = up[up[i]]
        return i

    first: dict = {}  # variable -> the first constraint that mentions it
    for i, c in enumerate(pr):
        for x in c._vars:
            up[root(first.setdefault(x, i))] = root(i)
    parts: dict[int, list[int]] = {}
    for i in range(len(pr)):
        parts.setdefault(root(i), []).append(i)
    return list(parts.values()) or [[]]


def _combine(sols: tuple[Solution, ...]) -> Solution:
    """One solution of each part, as one of the whole problem: the union of
    their contexts and of their substitutions, the bindings' text merged
    from theirs, not printed again."""
    if len(sols) == 1:
        return sols[0]
    subst = Substitution()
    for s in sols:
        subst.bindings.update(s.subst.bindings)
    context = FixpointContext(frozenset().union(*[s.context.constraints for s in sols]))
    return Solution(context, subst, sorted(chain.from_iterable([s.bindings() for s in sols])))


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
