"""Random generators shared by the test suites."""

from __future__ import annotations

import random

from nomfix import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    FreshnessContext,
    Permutation,
    Signature,
    Susp,
    Swapping,
    Theory,
    Tup,
    Var,
    act,
)

ATOMS = tuple(Atom(n) for n in "abcde")
VARS = tuple(Var(n) for n in ("X", "Y", "Z"))

SIG_PLAIN = Signature({"f": Theory.NONE, "g": Theory.NONE})
SIG_A = Signature({"f": Theory.NONE, "cat": Theory.A})
SIG_C = Signature({"f": Theory.NONE, "+": Theory.C})
SIG_AC = Signature({"f": Theory.NONE, "*": Theory.AC})
SIG_FULL = Signature(
    {"f": Theory.NONE, "cat": Theory.A, "+": Theory.C, "*": Theory.AC}
)
SIG_CLASSES = {"plain": SIG_PLAIN, "A": SIG_A, "C": SIG_C, "AC": SIG_AC}


def random_perm(rng: random.Random, atoms=ATOMS, max_swaps=3) -> Permutation:
    n = rng.randrange(max_swaps + 1)
    return Permutation(tuple(Swapping(*rng.sample(atoms, 2)) for _ in range(n)))


def random_term(rng, sig: Signature, depth=3, atoms=ATOMS, variables=VARS, ground=False):
    kinds = ["atom"]
    if not ground:
        kinds.append("var")
    if depth > 0:
        kinds += ["abs", "tup", "app", "abs", "app"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return AtomTerm(rng.choice(atoms))
    if kind == "var":
        return Susp(random_perm(rng, atoms), rng.choice(variables))
    if kind == "abs":
        return Abs(rng.choice(atoms), random_term(rng, sig, depth - 1, atoms, variables, ground))
    if kind == "tup":
        return Tup(
            tuple(
                random_term(rng, sig, depth - 1, atoms, variables, ground)
                for _ in range(rng.choice((2, 2, 3)))
            )
        )
    f = rng.choice(sorted(sig.symbols))
    if sig.symbols[f] is Theory.NONE:
        return App(f, random_term(rng, sig, depth - 1, atoms, variables, ground))
    return App(
        f,
        Tup(
            (
                random_term(rng, sig, depth - 1, atoms, variables, ground),
                random_term(rng, sig, depth - 1, atoms, variables, ground),
            )
        ),
    )


def rename_binders(rng, t, atoms=ATOMS):
    """t with about half its binders renamed, each to an atom of atoms:
    [a] u becomes [b] (a b).u, alpha-equivalent to [a] u exactly when b is a
    or b is not free in u, so some renamings keep the term's class and some
    do not."""
    kind = type(t)
    if kind is Abs:
        body = rename_binders(rng, t.body, atoms)
        b = rng.choice(atoms)
        if b is t.binder or rng.random() < 0.5:
            return Abs(t.binder, body)
        return Abs(b, act(Permutation.swap(t.binder, b), body))
    if kind is App:
        return App(t.symbol, rename_binders(rng, t.arg, atoms))
    if kind is Tup:
        return Tup(tuple(rename_binders(rng, s, atoms) for s in t.items))
    return t


def random_fixp_context(rng, atoms=ATOMS, variables=VARS, max_entries=3) -> FixpointContext:
    pairs = set()
    for _ in range(rng.randrange(max_entries + 1)):
        p = random_perm(rng, atoms)
        if p.support():
            pairs.add((p, rng.choice(variables)))
    return FixpointContext(frozenset(pairs))


def random_fresh_context(rng, atoms=ATOMS, variables=VARS, max_entries=4) -> FreshnessContext:
    pairs = frozenset(
        (rng.choice(atoms), rng.choice(variables))
        for _ in range(rng.randrange(max_entries + 1))
    )
    return FreshnessContext(pairs)
