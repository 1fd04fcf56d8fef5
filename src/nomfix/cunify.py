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

So c_unify reports that tree: its leaves are counted as the product, and
it has each part's tree below every leaf of the parts before it, written
(tree_records) from the parts' own leaves, not built.  That takes each
part's steps in the order its own search took them, the parts in turn; a
search of the whole problem took the same steps, in that order when each
part is one constraint whose first step is its split (k independent
C-pairs), and otherwise interleaved.  A leaf's outcome, a successful
leaf's combined solution and the tree's records are made only when they
are read, so the search costs the sum of the parts' searches, and only
the output can be exponential.

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
    CUnifyResult.parts: each part's tree below every leaf of the parts before.

    A node of a part's tree is known by its path object, which all its
    descendants share.  The records come in pre-order, children in
    expansion order, each as {id, parent, rule, ...}: id is its position
    and parent its parent's.  The root holds the problem; every other
    record holds the step that led to it, the consumed constraint and
    either the produced constraints or the binding.  A leaf adds its
    outcome, "success" or the failure kind, and a success its solution.
    A part's search visits the last child first, so its leaves, read in
    reverse, come in pre-order, and so do the combinations of them: each
    adds, part by part, the nodes below the deepest one already written
    under the record the part hangs from, top down, and its outcome goes
    on the last record it adds (on the root, when no part takes a step).
    A combination's records are built when the first is asked for; a
    part's table of written nodes is cleared when that record changes."""
    said: dict[int, str] = {}  # id(constraint) -> its text: a step consumes what an earlier one produced

    def text(c) -> str:
        return said.get(id(c)) or said.setdefault(id(c), str(c))

    below = [None] * len(parts)  # per part, the record its table's nodes hang from
    tables: list[dict[int, int]] = [{} for _ in parts]  # per part, id(path) -> its record's id
    made = [{"id": 0, "parent": None, "rule": None, "problem": list(map(text, pr))}]
    n = 0
    for choice in product(*[leaves[::-1] for _, leaves in parts]):
        top = 0
        for p, (path, *_) in enumerate(choice):
            if below[p] != top:
                below[p], tables[p] = top, {}
            ids, new = tables[p], []
            while path is not None and id(path) not in ids:
                new.append(path)
                path = path[1]
            if path is not None:
                top = ids[id(path)]
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
        failure, solution = _outcome(choice)
        made[-1]["outcome"] = "success" if failure is None else failure[0]
        if solution is not None:
            made[-1]["solution"] = solution.key()
        yield from made
        made = []


def tree_line(record: dict) -> str:
    """The text of a tree record: the problem at the root, else the step
    as unify's trace prints it; a leaf's outcome in angle brackets."""
    if record["parent"] is None:
        line = "; ".join(record["problem"]) or "(empty)"
    else:
        b = record.get("binding")
        line = step_line(record["rule"], record["consumed"], b and (b["var"], b["term"]), record.get("produced"))
    return f"{line} <{record['outcome']}>" if "outcome" in record else line


def _outcome(choice: tuple) -> tuple:
    """The leaf that combines a choice of a leaf in each part, as (failure,
    solution).  It fails if a part's leaf does, with the failure that comes
    first in the whole problem's normal form, as the failures' ranks order
    them (_rank); else its solution is combined from the parts' (_combine)."""
    failed = [leaf for leaf in choice if leaf[1] is not None]
    if failed:
        return min(failed, key=lambda leaf: leaf[3])[1], None
    return None, _combine(tuple(sol for _, _, sol, _ in choice))


class CUnifyResult(_Fields):
    """The solutions of a c_unify search and its parts, off which the rest
    is read.  A part is (indices, leaves): its constraints' places in the
    problem, and its search's leaves as (path, failure, solution, rank).

    leaves counts the leaves, one per choice of a leaf in each part.
    outcomes makes them as (failure, solution), in search order, the last
    part's varying fastest (itertools.product), afresh at each read, one
    at a time, by _outcome.  tree, the derivation tree as tree_records, is
    read on first use.  It has no slots: cached_property keeps tree in its
    __dict__."""

    __match_args__ = ("status", "solutions", "problem", "parts")

    def __init__(self, status: str, solutions: list[Solution], problem: Problem, parts: list):
        self.status = status  # "solved" | "unsolvable"
        self.solutions, self.problem, self.parts = solutions, problem, parts

    def __repr__(self) -> str:
        return f"CUnifyResult(status={self.status!r}, solutions={self.solutions!r})"

    @property
    def leaves(self) -> int:
        return prod(len(leaves) for _, leaves in self.parts)

    @property
    def outcomes(self) -> Iterator[tuple]:
        return map(_outcome, product(*[leaves for _, leaves in self.parts]))

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
    parts = [(indices, [(path, failure, sol, failure and _rank(st, failure[1], p, indices))
                        for _, path, failure, sol, st in leaves])
             for p, (indices, leaves) in enumerate(zip(groups, searches))]
    solved = ([sol for _, _, sol, _ in leaves if sol is not None] for _, leaves in parts)
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


def _rank(st, witness, p: int, indices: list[int]) -> tuple:
    """Where the failure witness of a leaf of part p, in the leaf's state
    st, stands in the normal form of a combined leaf: the constraints
    steps produced come first, the last part's first, then those in the
    input constraints' places, in input order."""
    k = min(k for k, c in st.cons.items() if c is witness)
    return (0, -p) if k < 0 else (1, indices[k])


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
