"""Translations between freshness contexts and fixed-point contexts.

A freshness assumption a # X becomes (a c) fix X for a generated atom c, one
per (atom, variable) pair.  A fixed-point assumption pi fix X becomes a # X
for every atom a in the support of pi.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fixpoint import check_fixp
from .syntax import (
    Atom,
    FixpointContext,
    FreshnessContext,
    NameGenerator,
    Permutation,
    Signature,
    Term,
    Var,
    atoms_in,
    generator_avoiding,
)


@dataclass(frozen=True)
class TranslationRecord:
    """How one context entry was translated."""

    source: str
    target: str
    generated: tuple[Atom, ...] = ()


def fresh_to_fixp(
    ctx: FreshnessContext,
    gen: NameGenerator | None = None,
    records: list[TranslationRecord] | None = None,
) -> FixpointContext:
    if gen is None:
        gen = generator_avoiding(ctx.atoms())
    pairs = []
    for a, x in ctx.entries():
        c = gen.fresh()
        p = Permutation.swap(a, c)
        pairs.append((p, x))
        if records is not None:
            records.append(TranslationRecord(f"{a} fresh {x}", f"{p} fix {x}", (c,)))
    return FixpointContext(frozenset(pairs))


def fixp_to_fresh(
    ctx: FixpointContext, records: list[TranslationRecord] | None = None
) -> FreshnessContext:
    pairs: set[tuple[Atom, Var]] = set()
    for p, x in ctx.entries():
        supp = sorted(p.support())
        pairs.update((a, x) for a in supp)
        if records is not None:
            target = ", ".join(f"{a} fresh {x}" for a in supp) or "(empty)"
            records.append(TranslationRecord(f"{p} fix {x}", target))
    return FreshnessContext(frozenset(pairs))


def fresh_judgement_via_fixp(
    sig: Signature,
    ctx: FreshnessContext,
    a: Atom,
    t: Term,
    gen: NameGenerator | None = None,
) -> bool:
    """Decide ctx |- a # t by running the fixed-point engine on the translated
    judgement: c is a generated atom, the context gains the translated
    entries plus newness constraints (c c') fix Y for the variables of t, and
    the engine checks (a c) fix t."""
    if gen is None:
        gen = generator_avoiding(atoms_in(ctx, t, a))
    fctx = fresh_to_fixp(ctx, gen)
    c, new = gen.newness(t)
    return check_fixp(sig, fctx.extend(new), Permutation.swap(a, c), t, gen=gen)
