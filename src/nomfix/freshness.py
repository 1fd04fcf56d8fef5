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
    kind = type(t)
    if kind is AtomTerm:
        node.rule = "#atom"
        node.ok = a is not rho.image.get(t.atom, t.atom)
    elif kind is Abs:
        body = t.body
        if a is rho.image.get(t.binder, t.binder):
            node.rule = "#abs-same"
            node.ok = True
        else:
            node.rule = "#abs"
            node.ok = _fresh(ctx, a, body, rho, node.child("", rho, a, "fresh?", body))
    elif kind is Tup:
        node.rule = "#tuple"
        node.ok = all(_fresh(ctx, a, s, rho, node.child("", rho, a, "fresh?", s)) for s in t.items)
    elif kind is App:
        node.rule = "#app"
        arg = t.arg
        node.ok = _fresh(ctx, a, arg, rho, node.child("", rho, a, "fresh?", arg))
    elif kind is Susp:
        # a # rho.p.X when p^-1(rho^-1(a)) # X
        node.rule = "#var"
        node.ok = ctx.holds(t.perm.preimage(rho.preimage.get(a, a)), t.var)
    else:
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
    s, t = flatten(sig, s), flatten(sig, t)
    return alpha(_RULES, sig, ctx, None, s, t, Renaming(), trace_root(trace, s, "=?", t))


def _var(ctx: FreshnessContext, p, q, rho: Renaming, x) -> bool:
    # p.X ~ rho.q.X when X is fresh for every atom on which they disagree
    return all(ctx.holds(a, x) for a in rho.differ(p, q))


def _rename(sig, ctx: FreshnessContext, gen, a: Atom, t: Term, rho: Renaming, node: TraceNode, bound) -> bool:
    # [a] s ~ [b] rho.t needs a # rho.t
    return _fresh(ctx, a, t, rho, node.child("", rho, a, "fresh?", t))


_RULES = AlphaRules("~", _var, _rename, "#ground")
