"""The classical freshness system: derivability of a # t and of s ~ t from
freshness assumptions, including the equational rules for A, C, and AC
function symbols."""

from __future__ import annotations

from .alpha import AlphaRules, TraceNode, alpha, derive, trace_root
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


def check_fresh(ctx: FreshnessContext, a: Atom, t: Term, trace: list[TraceNode] | None = None) -> bool:
    """Decide ctx |- a # t.  Freshness does not look at equational theories."""
    return derive(_fresh(ctx, a, t, Renaming(), trace_root(trace, a, "fresh?", t)))


def _fresh(ctx: FreshnessContext, a: Atom, t: Term, rho: Renaming, node: TraceNode):
    """The rule deciding ctx |- a # rho.t, reading the atoms of t through
    rho.  Every premise is the body or an argument, derived in one loop."""
    kind, ok, premises = type(t), True, ()
    if kind is AtomTerm:
        node.rule = "#atom"
        ok = a is not rho.image.get(t.atom, t.atom)
    elif kind is Abs:
        if a is rho.image.get(t.binder, t.binder):
            node.rule = "#abs-same"
        else:
            node.rule, premises = "#abs", (t.body,)
    elif kind is Tup:
        node.rule, premises = "#tuple", t.items
    elif kind is App:
        node.rule, premises = "#app", (t.arg,)
    elif kind is Susp:
        # a # rho.p.X when p^-1(rho^-1(a)) # X
        node.rule = "#var"
        ok = ctx.holds(t.perm.preimage(rho.preimage.get(a, a)), t.var)
    else:
        raise TypeError(f"not a term: {t!r}")
    for s in premises:
        if not (yield _fresh(ctx, a, s, rho, node.child("", rho, a, "fresh?", s))):
            ok = False
            break
    node.ok = ok
    return ok


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
    return derive(alpha(_RULES, sig, ctx, None, s, t, Renaming(), trace_root(trace, s, "=?", t)))


def _var(ctx: FreshnessContext, p, q, rho: Renaming, x) -> bool:
    # p.X ~ rho.q.X when X is fresh for every atom on which they disagree
    return all(ctx.holds(a, x) for a in rho.differ(p, q))


def _rename(sig, ctx: FreshnessContext, gen, a: Atom, t: Term, rho: Renaming, node: TraceNode, bound):
    # [a] s ~ [b] rho.t needs a # rho.t: its derivation
    return _fresh(ctx, a, t, rho, node.child("", rho, a, "fresh?", t))


_RULES = AlphaRules("~", _var, _rename, "#ground")
