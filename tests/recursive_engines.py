"""The checking engines as they were before they ran on one explicit stack:
each rule calls the derivation of its premises, a Python frame per level.
Kept as the reference the stack-driven engines must reproduce, verdict for
verdict and trace record for trace record; each check here takes the
arguments of the nomfix check of the same name."""

import sys
from bisect import bisect_left

from nomfix import Abs, App, AtomTerm, Permutation, Susp, Theory, Tup, act, atoms_in, flatten, free_atoms, free_vars
from nomfix.alpha import AlphaRules, trace_root
from nomfix.syntax import Renaming, equational_args, generator_avoiding, is_pair

ALPHA = sys.modules["nomfix.alpha"]
FIXPOINT = sys.modules["nomfix.fixpoint"]
FRESHNESS = sys.modules["nomfix.freshness"]


def alpha(rules, sig, ctx, gen, s, t, rho, node, bound=None):
    if __debug__ and rules.measure is not None:
        bound = rules.measure(bound, s, t)
    pre = rules.prefix
    node.rule, ok, premises = "clash", False, ()
    kind = type(s)
    if kind is not type(t):
        pass
    elif kind is AtomTerm:
        node.rule = pre + "atom"
        b = t.atom
        ok = s.atom is rho.image.get(b, b)
    elif kind is Abs:
        a, b, s1, t1 = s.binder, rho.image.get(t.binder, t.binder), s.body, t.body
        if a is b:
            node.rule, ok, premises = pre + "abs", True, ((s1, t1),)
        else:
            node.rule = pre + "abs-rename"
            rho.swap(a, b)
            ok = alpha(rules, sig, ctx, gen, s1, t1, rho, node.child("", rho, s1, "=?", t1), bound)
            rho.swap(a, b)
            if ok and free_vars(t1):
                ok = rules.rename(sig, ctx, gen, a, t1, rho, node, bound)
            elif ok:
                head = (a, "fresh?") if gen is None else ((a, gen.fresh()), "fix?")
                side = node.child(rules.ground, rho, *head, t1)
                side.ok = ok = rho.preimage.get(a, a) not in free_atoms(t1)
    elif kind is Tup:
        if len(s.items) == len(t.items):
            node.rule, ok, premises = pre + "tuple", True, zip(s.items, t.items)
    elif kind is App:
        f, sarg, targ = s.symbol, s.arg, t.arg
        if f == t.symbol:
            th = sig.theory(f)
            if th is Theory.C and is_pair(sarg) and is_pair(targ):
                node.rule = pre + "app-C"
                (s0, s1), (t0, t1) = sarg.items, targ.items
                for i, (u0, u1) in enumerate(((t0, t1), (t1, t0))):
                    attempt = node.child(f"align-{i}", rho, s, "=?", t)
                    if alpha(rules, sig, ctx, gen, s0, u0, rho, attempt.child("", rho, s0, "=?", u0), bound) and alpha(
                        rules, sig, ctx, gen, s1, u1, rho, attempt.child("", rho, s1, "=?", u1), bound
                    ):
                        attempt.ok = ok = True
                        break
            elif th is Theory.AC:
                node.rule = pre + "app-AC"
                ss, ts = equational_args(s), equational_args(t)
                ok = len(ss) == len(ts) and _ac(rules, sig, ctx, gen, f, ss, ts, rho, node, bound)
            elif th is Theory.A:
                node.rule = pre + "app-A"
                ss, ts = equational_args(s), equational_args(t)
                ok, premises = len(ss) == len(ts), zip(ss, ts)
            else:
                node.rule, ok, premises = pre + "app", True, ((sarg, targ),)
    elif kind is Susp:
        if s.var is t.var:
            node.rule = pre + "var"
            ok = rules.var(ctx, s.perm, t.perm, rho, s.var)
    else:
        raise TypeError(f"not a term: {s!r}")
    if ok:
        for x, y in premises:
            if not alpha(rules, sig, ctx, gen, x, y, rho, node.child("", rho, x, "=?", y), bound):
                ok = False
                break
    node.ok = ok
    return ok


def _ac(rules, sig, ctx, gen, f, ss, ts, rho, node, bound):
    left, partners, rests = list(range(len(ts))), {}, []
    for j, t in enumerate(ts):
        partners.setdefault(ALPHA._shape(t, rho.image), []).append(j)
    for s in ss:
        bucket = partners.get(ALPHA._shape(s, {}), ())
        for k, j in enumerate(bucket):
            t = ts[j]
            if alpha(rules, sig, ctx, gen, s, t, rho, node.child("", rho, s, "=?", t), bound):
                break
        else:
            return False
        del bucket[k]
        i = bisect_left(left, j)
        del left[i]
        if left:
            node = node.child(f"rest-{i}", None, f, "remainder")
            rests.append(node)
    for rest in rests:
        rest.ok = True
    return True


def _fixp(sig, ctx, perm, t, rho, gen, node, bound):
    if __debug__:
        bound = FIXPOINT._measure(bound, t)
    kind = type(t)
    if kind is AtomTerm:
        node.rule = "fix-atom"
        a = rho.image.get(t.atom, t.atom)
        node.ok = perm(a) is a
    elif kind is Abs:
        node.rule = "fix-abs"
        body = t.body
        c1, new = gen.newness(body)
        a = rho.image.get(t.binder, t.binder)
        rho.swap(a, c1)
        node.ok = _fixp(sig, ctx.extend(new), perm, body, rho, gen, node.child("", rho, perm, "fix?", body), bound)
        rho.swap(a, c1)
    elif kind is Tup:
        node.rule = "fix-tuple"
        node.ok = all(
            _fixp(sig, ctx, perm, s, rho, gen, node.child("", rho, perm, "fix?", s), bound) for s in t.items
        )
    elif kind is App:
        th = sig.theory(t.symbol)
        if th in (Theory.NONE, Theory.A):
            node.rule = "fix-app"
            arg = t.arg
            node.ok = _fixp(sig, ctx, perm, arg, rho, gen, node.child("", rho, perm, "fix?", arg), bound)
        else:
            node.rule = f"fix-app-{th.value}"
            t = act(rho.permutation(), t)
            moved = act(perm, t)
            inner = node.child("", None, moved, "=?", t)
            node.ok = alpha(FIX_RULES, sig, ctx, gen, moved, t, Renaming(), inner, bound)
    elif kind is Susp:
        node.rule = "fix-var"
        q, fixed = t.perm, ctx.supp_of(t.var)
        node.ok = all(q.preimage(rho.preimage.get(a, a)) in fixed for a in perm.support())
    else:
        raise TypeError(f"not a term: {t!r}")
    return node.ok


def _fixp_rename(sig, ctx, gen, a, t, rho, node, bound):
    c1, new = gen.newness(t)
    p = Permutation.swap(a, c1)
    return _fixp(sig, ctx.extend(new), p, t, rho, gen, node.child("", rho, p, "fix?", t), bound)


def _fresh(ctx, a, t, rho, node):
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
        node.rule = "#var"
        node.ok = ctx.holds(t.perm.preimage(rho.preimage.get(a, a)), t.var)
    else:
        raise TypeError(f"not a term: {t!r}")
    return node.ok


def _fresh_rename(sig, ctx, gen, a, t, rho, node, bound):
    return _fresh(ctx, a, t, rho, node.child("", rho, a, "fresh?", t))


FIX_RULES = AlphaRules("eq-", FIXPOINT._var, _fixp_rename, "fix-ground", FIXPOINT._measure)
FRESH_RULES = AlphaRules("~", FRESHNESS._var, _fresh_rename, "#ground")


def check_fixp(sig, ctx, perm, t, gen=None, trace=None):
    t = flatten(sig, t)
    if gen is None:
        gen = generator_avoiding(atoms_in(ctx, t, perm))
    return _fixp(sig, ctx, perm, t, Renaming(), gen, trace_root(trace, perm, "fix?", t), None)


def check_alpha_fixp(sig, ctx, s, t, gen=None, trace=None):
    s, t = flatten(sig, s), flatten(sig, t)
    if gen is None:
        gen = generator_avoiding(atoms_in(ctx, s, t))
    return alpha(FIX_RULES, sig, ctx, gen, s, t, Renaming(), trace_root(trace, s, "=?", t))


def check_fresh(ctx, a, t, trace=None):
    return _fresh(ctx, a, t, Renaming(), trace_root(trace, a, "fresh?", t))


def check_alpha_fresh(sig, ctx, s, t, trace=None):
    s, t = flatten(sig, s), flatten(sig, t)
    return alpha(FRESH_RULES, sig, ctx, None, s, t, Renaming(), trace_root(trace, s, "=?", t))
