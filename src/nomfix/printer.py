"""Text rendering of terms, permutations, and substitutions; contexts print
themselves with str().

Output parses back with nomfix.parser, except for generated atoms, which are
printed with the reserved "#c" prefix and never accepted in input.
"""

from __future__ import annotations

from .syntax import (
    Abs,
    App,
    AtomTerm,
    Permutation,
    Substitution,
    Susp,
    Term,
    Tup,
)


def print_term(t: Term) -> str:
    match t:
        case AtomTerm(a):
            return a.name
        case Susp(p, x):
            if not p.swappings:
                return x.name
            return f"{print_perm(p)}.{x.name}"
        case Abs(b, body):
            return f"[{b.name}] {print_term(body)}"
        case Tup(items):
            return "(" + ", ".join(print_term(s) for s in items) + ")"
        case App(f, arg):
            if isinstance(arg, Tup):
                return f + "(" + ", ".join(print_term(s) for s in arg.items) + ")"
            return f + "(" + print_term(arg) + ")"
    raise TypeError(f"not a term: {t!r}")


def print_perm(p: Permutation) -> str:
    return str(p)


def print_subst(sigma: Substitution) -> str:
    inner = ", ".join(
        f"{x.name} -> {print_term(t)}" for x, t in sorted(sigma.bindings.items())
    )
    return "{" + inner + "}"
