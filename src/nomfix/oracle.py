"""Independent checking tools: a ground alpha-equivalence oracle that shares
no logic with the derivation engines, exhaustive term and substitution
enumeration over a small pool, and solution verification.

The oracle renames bound atoms to their binding depth (a level-style
canonical form) and compares terms structurally, modulo the declared
equational theories.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fixpoint import check_alpha_fixp, check_fixp
from .syntax import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    Permutation,
    Signature,
    Substitution,
    Susp,
    Term,
    Theory,
    Tup,
    Var,
    is_ground,
)
from .unify import Eq, Fix, Solution, is_more_general, problem_vars


def ground_alpha_oracle(sig: Signature, s: Term, t: Term) -> bool:
    """Alpha-equivalence of two ground terms, decided by binder-depth
    renaming and direct structural comparison modulo the theories in sig."""
    if not (is_ground(s) and is_ground(t)):
        raise ValueError("the oracle only compares ground terms")
    return _cmp(sig, s, t, {}, {}, 0)


def _cmp(sig: Signature, s: Term, t: Term, envs: dict, envt: dict, depth: int) -> bool:
    match (s, t):
        case (AtomTerm(a), AtomTerm(b)):
            return envs.get(a, a) == envt.get(b, b)
        case (Abs(a, s1), Abs(b, t1)):
            envs2 = dict(envs)
            envt2 = dict(envt)
            envs2[a] = depth
            envt2[b] = depth
            return _cmp(sig, s1, t1, envs2, envt2, depth + 1)
        case (Tup(xs), Tup(ys)):
            return len(xs) == len(ys) and all(
                _cmp(sig, x, y, envs, envt, depth) for x, y in zip(xs, ys)
            )
        case (App(f, _), App(g, _)) if f == g:
            th = sig.theory(f)
            if th is Theory.NONE:
                return _cmp(sig, s.arg, t.arg, envs, envt, depth)
            if th is Theory.C:
                sp = isinstance(s.arg, Tup) and len(s.arg.items) == 2
                tp = isinstance(t.arg, Tup) and len(t.arg.items) == 2
                if not (sp and tp):
                    return _cmp(sig, s.arg, t.arg, envs, envt, depth)
                s0, s1 = s.arg.items
                for i in (0, 1):
                    t0, t1 = t.arg.items[i], t.arg.items[(i + 1) % 2]
                    if _cmp(sig, s0, t0, envs, envt, depth) and _cmp(
                        sig, s1, t1, envs, envt, depth
                    ):
                        return True
                return False
            ss = _spine(f, s.arg)
            ts = _spine(f, t.arg)
            if len(ss) != len(ts):
                return False
            if th is Theory.A:
                return all(_cmp(sig, x, y, envs, envt, depth) for x, y in zip(ss, ts))
            return _bijection(sig, ss, ts, envs, envt, depth)
        case _:
            return False


def _spine(f: str, arg: Term) -> list[Term]:
    """Arguments of an application of f, with nested f-applications opened
    up (kept independent of the flattening used elsewhere)."""
    items = list(arg.items) if isinstance(arg, Tup) else [arg]
    out: list[Term] = []
    for s in items:
        if isinstance(s, App) and s.symbol == f:
            out.extend(_spine(f, s.arg))
        else:
            out.append(s)
    return out


def _bijection(sig, ss, ts, envs, envt, depth) -> bool:
    if not ss:
        return True
    head, rest = ss[0], ss[1:]
    for i, cand in enumerate(ts):
        if _cmp(sig, head, cand, envs, envt, depth):
            if _bijection(sig, rest, ts[:i] + ts[i + 1 :], envs, envt, depth):
                return True
    return False


@dataclass
class TermPool:
    """A finite universe for enumeration: atoms, variables, and a signature."""

    atoms: tuple[Atom, ...]
    variables: tuple[Var, ...] = ()
    signature: Signature = field(default_factory=lambda: Signature(permissive=True))
    max_depth: int = 2


def enumerate_terms(pool: TermPool) -> list[Term]:
    """All terms over the pool up to the pool's depth bound, deterministically
    ordered.  Applications of C, A, and AC symbols are built over pairs."""
    terms: list[Term] = [AtomTerm(a) for a in pool.atoms]
    terms += [Susp(Permutation.identity(), x) for x in pool.variables]
    seen: set[Term] = set(terms)

    def add(t: Term):
        if t not in seen:
            seen.add(t)
            fresh.append(t)

    for _ in range(pool.max_depth):
        prev = list(terms)
        fresh: list[Term] = []
        for a in pool.atoms:
            for t in prev:
                add(Abs(a, t))
        for f, th in sorted(pool.signature.symbols.items()):
            if th is Theory.NONE:
                for t in prev:
                    add(App(f, t))
            else:
                for t1, t2 in itertools.product(prev, prev):
                    add(App(f, Tup((t1, t2))))
        for t1, t2 in itertools.product(prev, prev):
            add(Tup((t1, t2)))
        terms += fresh
    return terms


def enumerate_ground_substs(variables, pool: TermPool):
    """Every total map from the variables to ground pool terms."""
    variables = sorted(set(variables))
    ground = [t for t in enumerate_terms(pool) if is_ground(t)]
    for choice in itertools.product(ground, repeat=len(variables)):
        yield Substitution(dict(zip(variables, choice)))


def verify_solution(sig: Signature, problem, sol: Solution) -> bool:
    """Check that a solution really solves a problem: every constraint holds
    under the substitution in the solution's context, and the substitution is
    idempotent up to equivalence."""
    sigma = sol.subst
    ctx = sol.context
    for c in problem:
        if isinstance(c, Eq):
            if not check_alpha_fixp(sig, ctx, sigma(c.lhs), sigma(c.rhs)):
                return False
        elif isinstance(c, Fix):
            if not check_fixp(sig, ctx, c.perm, sigma(c.target)):
                return False
        else:
            raise TypeError(f"not a constraint: {c!r}")
    for x in problem_vars(tuple(problem)):
        once = sigma(Susp(Permutation.identity(), x))
        if not check_alpha_fixp(sig, ctx, once, sigma(once)):
            return False
    return True


def completeness_check(
    sig: Signature,
    problem,
    solutions,
    pool: TermPool,
) -> tuple[int, int, list[Substitution]]:
    """Enumerate ground substitutions over the pool; every one that solves
    the problem must be subsumed by some computed solution.

    Returns (ground solutions found, ground solutions covered, missed ones).
    """
    problem = tuple(problem)
    variables = sorted(problem_vars(problem))
    found = covered = 0
    missed: list[Substitution] = []
    for delta in enumerate_ground_substs(variables, pool):
        ground_sol = Solution(FixpointContext(), delta)
        if not verify_solution(sig, problem, ground_sol):
            continue
        found += 1
        if any(is_more_general(sol, ground_sol, variables, sig) for sol in solutions):
            covered += 1
        else:
            missed.append(delta)
    return found, covered, missed
