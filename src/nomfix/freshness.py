"""The classical freshness system: derivability of a # t and of s ~ t from
freshness assumptions, including the equational rules for A, C, and AC
function symbols."""

from __future__ import annotations

from .alpha import AlphaRules, TraceNode, alpha, trace_root
from .syntax import (
    Abs,
    App,
    AtomTerm,
    Atom,
    FreshnessContext,
    Renaming,
    Signature,
    Susp,
    Term,
    Tup,
    flatten,
)


def check_fresh(
    ctx: FreshnessContext, a: Atom, t: Term, trace: list[TraceNode] | None = None
) -> bool:
    """Decide ctx |- a # t.  Freshness does not look at equational theories."""
    return _fresh(ctx, a, t, Renaming(), trace_root(trace, a, "fresh?", t))


def _fresh(ctx: FreshnessContext, a: Atom, t: Term, rho: Renaming, node: TraceNode) -> bool:
    """Decide ctx |- a # rho.t, reading the atoms of t through rho."""
    match t:
        case AtomTerm(b):
            node.rule = "#atom"
            node.ok = a != rho.image.get(b, b)
        case Susp(p, x):
            # a # rho.p.X when p^-1(rho^-1(a)) # X
            node.rule = "#var"
            node.ok = ctx.holds(p.inverse()(rho.preimage.get(a, a)), x)
        case App(_, arg):
            node.rule = "#app"
            node.ok = _fresh(ctx, a, arg, rho, node.child("", rho, a, "fresh?", arg))
        case Tup(items):
            node.rule = "#tuple"
            node.ok = all(_fresh(ctx, a, s, rho, node.child("", rho, a, "fresh?", s)) for s in items)
        case Abs(b, body):
            if a == rho.image.get(b, b):
                node.rule = "#abs-same"
                node.ok = True
            else:
                node.rule = "#abs"
                node.ok = _fresh(ctx, a, body, rho, node.child("", rho, a, "fresh?", body))
        case _:
            raise TypeError(f"not a term: {t!r}")
    return node.ok


def check_alpha_fresh(
    sig: Signature,
    ctx: FreshnessContext,
    s: Term,
    t: Term,
    trace: list[TraceNode] | None = None,
) -> bool:
    """Decide ctx |- s ~ t in the freshness presentation, modulo the
    equational theories declared in sig."""
    if sig.has_equational_symbols():
        s = flatten(sig, s)
        t = flatten(sig, t)
    return alpha(_RULES, sig, ctx, None, s, t, Renaming(), trace_root(trace, s, "=?", t))


def _var(ctx: FreshnessContext, p, q, x) -> bool:
    # p.X ~ q.X when X is fresh for every atom on which p and q disagree
    return all(ctx.holds(a, x) for a in q.inverse().compose(p).support())


def _rename(sig, ctx: FreshnessContext, gen, a: Atom, t: Term, rho: Renaming, node: TraceNode, bound) -> bool:
    # [a] s ~ [b] rho.t needs a # rho.t
    return _fresh(ctx, a, t, rho, node.child("", rho, a, "fresh?", t))


_RULES = AlphaRules("~", _var, _rename)
