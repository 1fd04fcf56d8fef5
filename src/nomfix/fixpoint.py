"""The permutation fixed-point system: derivability of pi fix t and of s ~ t
from fixed-point assumptions, in the name-generating presentation.

New atoms demanded by the abstraction rules are drawn from a NameGenerator;
each time one is introduced, a companion constraint (c1 c2) fix Y is added for
every variable in scope, which records that both atoms are new for Y.
"""

from __future__ import annotations

from .alpha import AlphaRules, TraceNode, alpha, trace_root
from .syntax import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    NameGenerator,
    Permutation,
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

# Lexicographic termination measure for the mutual recursion: first the
# maximal size of the terms in the judgement, then the judgement kind, with
# fix-judgements above equality judgements.
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
    if sig.has_equational_symbols():
        t = flatten(sig, t)
    if gen is None:
        gen = generator_avoiding(atoms_in(ctx, t, perm))
    return _fixp(sig, ctx, perm, t, gen, trace_root(trace, perm, "fix?", t), None)


def check_alpha_fixp(
    sig: Signature,
    ctx: FixpointContext,
    s: Term,
    t: Term,
    gen: NameGenerator | None = None,
    trace: list[TraceNode] | None = None,
) -> bool:
    """Decide ctx |- s ~ t in the fixed-point presentation."""
    if sig.has_equational_symbols():
        s = flatten(sig, s)
        t = flatten(sig, t)
    if gen is None:
        gen = generator_avoiding(atoms_in(ctx, s, t))
    return alpha(_RULES, sig, ctx, gen, s, t, trace_root(trace, s, "=?", t))


def _measure(bound, *terms: Term, kind: int = _EQ) -> tuple[int, int]:
    measure = (max(map(term_size, terms)), kind)
    assert bound is None or measure < bound, (
        f"termination measure did not decrease: {measure} not below {bound}"
    )
    return measure


def _fixp(
    sig: Signature,
    ctx: FixpointContext,
    perm: Permutation,
    t: Term,
    gen: NameGenerator,
    node: TraceNode,
    bound,
) -> bool:
    if __debug__:
        bound = _measure(bound, t, kind=_FIX)
    match t:
        case AtomTerm(a):
            node.rule = "fix-atom"
            node.ok = perm(a) == a
        case Susp(q, x):
            node.rule = "fix-var"
            node.ok = perm.conjugate(q.inverse()).support() <= ctx.supp_of(x)
        case Tup(items):
            node.rule = "fix-tuple"
            node.ok = all(_fixp(sig, ctx, perm, s, gen, node.child("", perm, "fix?", s), bound) for s in items)
        case App(f, arg):
            th = sig.theory(f)
            if th in (Theory.NONE, Theory.A):
                node.rule = "fix-app"
                node.ok = _fixp(sig, ctx, perm, arg, gen, node.child("", perm, "fix?", arg), bound)
            else:
                # commutative theories: pi fixes t when pi.t ~ t
                node.rule = f"fix-app-{th.value}"
                moved = act(perm, t)
                node.ok = alpha(_RULES, sig, ctx, gen, moved, t, node.child("", moved, "=?", t), bound)
        case Abs(a, body):
            node.rule = "fix-abs"
            c1, new = gen.newness(body)
            moved = act(Permutation.swap(a, c1), body)
            node.ok = _fixp(sig, ctx.extend(new), perm, moved, gen, node.child("", perm, "fix?", moved), bound)
        case _:
            raise TypeError(f"not a term: {t!r}")
    return node.ok


def _var(ctx: FixpointContext, p: Permutation, q: Permutation, x) -> bool:
    return q.inverse().compose(p).support() <= ctx.supp_of(x)


def _rename(sig, ctx: FixpointContext, gen: NameGenerator, a: Atom, t: Term, node: TraceNode, bound) -> bool:
    # [a] s ~ [b] t needs (a c1) fix t for a new atom c1
    c1, new = gen.newness(t)
    p = Permutation.swap(a, c1)
    return _fixp(sig, ctx.extend(new), p, t, gen, node.child("", p, "fix?", t), bound)


_RULES = AlphaRules("eq-", _var, _rename, _measure)
