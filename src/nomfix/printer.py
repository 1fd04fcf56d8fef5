"""Text rendering of terms, permutations, substitutions and derivation
records; contexts print themselves with str().

Output parses back with nomfix.parser, except for generated atoms under a
prefix starting with the reserved '#' (the default is "#c"), which input never
accepts.
Permutations print in their canonical form (see Permutation), so terms equal
under == print alike.
"""

from __future__ import annotations

from collections.abc import Iterator

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


def print_term(t: Term, memo: dict | None = None) -> str:
    """The text of t.  It walks an explicit stack of terms and text, so a
    term nested deeper than Python's recursion limit prints too.  memo, if
    given, maps id() of compound terms already printed to their text, which
    is emitted for the same object wherever it occurs in t."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is str:
            out.append(t)
        elif kind is AtomTerm:
            out.append(t.atom.name)
        elif kind is Susp:
            out.append(f"{print_perm(t.perm)}.{t.var.name}" if t.perm.swappings else t.var.name)
        elif memo is not None and id(t) in memo:
            out.append(memo[id(t)])
        elif kind is Abs:
            stack += (t.body, f"[{t.binder.name}] ")
        elif kind is Tup:
            stack += _listed("(", t.items)
        elif kind is App:
            stack += _listed(t.symbol + "(", t.arg.items if type(t.arg) is Tup else (t.arg,))
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


def _listed(opening: str, items) -> list:
    """Stack entries that print opening, the items separated by commas, and ")"."""
    text = [opening] + [x for s in items for x in (s, ", ")]
    text[-1] = ")"
    return text[::-1]


def print_perm(p: Permutation) -> str:
    return str(p)


def print_bindings(sigma: Substitution) -> list[tuple[str, str]]:
    """(variable name, term text) per binding of sigma, in name order (Var
    order: names are unique).  The terms print in insertion order through
    one memo, so a binding's term that bindings inserted after it share, as
    in unify's solutions, prints once."""
    memo = {}
    for t in sigma.bindings.values():
        memo[id(t)] = print_term(t, memo)
    return sorted([(x.name, memo[id(t)]) for x, t in sigma.bindings.items()])


def print_subst(sigma: Substitution, bindings: list[tuple[str, str]] | None = None) -> str:
    """{X -> t, ...}; bindings, if given, is print_bindings(sigma), made already."""
    pairs = print_bindings(sigma) if bindings is None else bindings
    return "{" + ", ".join([f"{x} -> {t}" for x, t in pairs]) + "}"


def print_records(records, line) -> Iterator[str]:
    """One line per derivation record, line(record), indented two spaces per
    level below its root, each made as it is asked for.  Each record's id is
    its position in records, and a parent comes before its children."""
    depth: list[int] = []
    for r in records:
        parent = r["parent"]
        depth.append(0 if parent is None else depth[parent] + 1)
        yield "  " * depth[-1] + line(r)
