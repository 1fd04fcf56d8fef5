"""The permutation fixed-point system: derivability of pi fix t and of s ~ t
from fixed-point assumptions, in the name-generating presentation.

New atoms demanded by the abstraction rules are drawn from a NameGenerator;
each time one is introduced, a companion constraint (c1 c2) fix Y is added for
every variable in scope, which records that both atoms are new for Y.
"""

from __future__ import annotations

from .alpha import AlphaRules, TraceNode, alpha, derive, trace_root
from .syntax import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    NameGenerator,
    Permutation,
    Renaming,
    Signature,
    Susp,
    Term,
    Theory,
    Tup,
    act,
    atoms_in,
    flatten,
    generator_avoiding,
    term_size,
)

# Termination measure for the rules of fix and ~: first the maximal size of
# the terms in the judgement, then the judgement kind, with fix-judgements
# above equality judgements; kind is 0 or 1, so 2 * size + kind orders
# judgements as the pair (size, kind) does.
_FIX, _EQ = 1, 0


def check_fixp(
    sig: Signature,
    ctx: FixpointContext,
    perm: Permutation,
    t: Term,
    gen: NameGenerator | None = None,
    trace: list[TraceNode] | None = None,
) -> bool:
    """Decide ctx |- perm fix t modulo the theories declared in sig."""
    t = flatten(sig, t)
    if gen is None:
        gen = generator_avoiding(atoms_in(ctx, t, perm))
    return derive(_fixp(sig, ctx, perm, t, Renaming(), gen, trace_root(trace, perm, "fix?", t), None))


def check_alpha_fixp(
    sig: Signature,
    ctx: FixpointContext,
    s: Term,
    t: Term,
    gen: NameGenerator | None = None,
    trace: list[TraceNode] | None = None,
) -> bool:
    """Decide ctx |- s ~ t in the fixed-point presentation."""
    s, t = flatten(sig, s), flatten(sig, t)
    if gen is None:
        gen = generator_avoiding(atoms_in(ctx, s, t))
    return derive(alpha(_RULES, sig, ctx, gen, s, t, Renaming(), trace_root(trace, s, "=?", t)))


def _measure(bound, s: Term, t: Term | None = None) -> int:
    """The measure of an alpha step on s and t, or with t None of a fix step
    on s, asserted below bound."""
    if t is None:
        measure = 2 * term_size(s) + _FIX
    else:
        m, n = term_size(s), term_size(t)
        measure = 2 * (m if m > n else n) + _EQ
    assert bound is None or measure < bound, f"termination measure did not decrease: {measure} not below {bound}"
    return measure


def _fixp(
    sig, ctx: FixpointContext, perm: Permutation, t: Term, rho: Renaming, gen: NameGenerator, node: TraceNode, bound
):
    """The rule deciding ctx |- perm fix rho.t, carrying rho down t as alpha
    does.  Tuples and free applications take their premises from one loop."""
    if __debug__:
        bound = _measure(bound, t)  # rho.t has t's size
    kind, ok, premises = type(t), True, ()
    if kind is AtomTerm:
        node.rule = "fix-atom"
        a = rho.image.get(t.atom, t.atom)
        ok = perm(a) is a
    elif kind is Abs:
        # pi fix [a'] rho.body, a' = rho(a), needs pi fix (a' c1).rho.body
        node.rule = "fix-abs"
        body = t.body
        c1, new = gen.newness(body)
        a = rho.image.get(t.binder, t.binder)
        rho.swap(a, c1)
        ok = yield _fixp(sig, ctx.extend(new), perm, body, rho, gen, node.child("", rho, perm, "fix?", body), bound)
        rho.swap(a, c1)
    elif kind is Tup:
        node.rule, premises = "fix-tuple", t.items
    elif kind is App:
        th = sig.theory(t.symbol)
        if th in (Theory.NONE, Theory.A):
            node.rule, premises = "fix-app", (t.arg,)
        else:
            # commutative theories: pi fixes t when pi.t ~ t; rho is acted out here, once
            node.rule = f"fix-app-{th.value}"
            t = act(rho.permutation(), t)
            moved = act(perm, t)
            inner = node.child("", None, moved, "=?", t)
            ok = yield alpha(_RULES, sig, ctx, gen, moved, t, Renaming(), inner, bound)
    elif kind is Susp:
        # pi fix rho.q.X when (rho q)^-1 pi (rho q) fixes X: its support, the
        # atoms q^-1(rho^-1(a)) for a moved by pi, lies in what fixes X
        node.rule = "fix-var"
        q, fixed = t.perm, ctx.supp_of(t.var)
        ok = all(q.preimage(rho.preimage.get(a, a)) in fixed for a in perm.support())
    else:
        raise TypeError(f"not a term: {t!r}")
    for s in premises:
        if not (yield _fixp(sig, ctx, perm, s, rho, gen, node.child("", rho, perm, "fix?", s), bound)):
            ok = False
            break
    node.ok = ok
    return ok


def _var(ctx: FixpointContext, p: Permutation, q: Permutation, rho: Renaming, x) -> bool:
    # p.X ~ rho.q.X when every atom on which they disagree is in what fixes X
    return rho.differ(p, q) <= ctx.supp_of(x)


def _rename(sig, ctx: FixpointContext, gen: NameGenerator, a: Atom, t: Term, rho: Renaming, node: TraceNode, bound):
    # [a] s ~ [b] rho.t needs (a c1) fix rho.t for a new atom c1: its derivation
    c1, new = gen.newness(t)
    p = Permutation.swap(a, c1)
    return _fixp(sig, ctx.extend(new), p, t, rho, gen, node.child("", rho, p, "fix?", t), bound)


_RULES = AlphaRules("eq-", _var, _rename, "fix-ground", _measure)
