"""Unification modulo commutative function symbols.

Runs the search of nomfix.unify with the signature's commutative symbols,
so that it branches in two at every application of one, and keeps the
finite derivation tree it explores.  Every successful leaf contributes one
solution; the collected set is a complete set of solutions for the problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import NameGenerator, Signature, Theory
from .unify import DerivationNode, Solution, _derive, is_more_general, problem_vars


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
    root, leaves = _derive(pr, sig, gen, (Theory.NONE, Theory.C), tree=True)
    outcomes = [solution for *_, solution in leaves]
    solutions = sorted((s for s in outcomes if s is not None), key=Solution.key)
    if dedup:
        solutions = _dedup(solutions, problem_vars(root.problem), sig)
    status = "solved" if solutions else "unsolvable"
    return CUnifyResult(status, solutions, root, len(outcomes))


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
