"""The alpha-equivalence rules shared by the freshness and fixed-point
engines, and the derivation traces both engines build.

The two presentations of s ~ t differ only in the rule for two suspensions
of one variable and in the side condition for renaming an abstraction; each
engine supplies those, its rule names and, for the fixed-point engine, a
termination-measure check, as an AlphaRules value.

A rule is a generator: it yields each premise's derivation, another rule's
generator, is sent back its verdict, and returns its own.  derive runs them
on one explicit stack, so a check answers at any depth.

On a ground body the two side conditions agree, and are decided here: for a
new atom c1, (a c1) fix t holds exactly when a # t, and on a ground t that
is a lookup in its memoised free atoms.  It is exact modulo A, C and AC,
which never change which atoms are free.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, NamedTuple

from .printer import print_term
from .syntax import (
    Abs,
    App,
    Atom,
    AtomTerm,
    Permutation,
    Renaming,
    Susp,
    Term,
    Theory,
    Tup,
    act,
    equational_args,
    free_atoms,
    free_vars,
    is_pair,
)


class TraceNode:
    """One judgement of a derivation: the rule that decided it, the goal's
    parts (atoms, permutations, terms and keywords, printed only when read),
    and whether it holds.  A part may be a (permutation, term) pair, which
    stands for the permutation acting on the term, or a pair of atoms, which
    stands for their swapping.

    Every node is appended to one flat list, the trace, when it is made;
    the engines make a premise's node just before deriving it, so the trace
    is in derivation pre-order.  id is the node's position in the trace and
    parent its conclusion's, None at a goal."""

    __slots__ = ("rule", "parts", "ok", "id", "parent", "trace")

    def __init__(self, trace: list, parent: int | None, rule: str, parts: tuple):
        self.rule, self.parts, self.ok = rule, parts, False
        self.id, self.parent, self.trace = len(trace), parent, trace
        trace.append(self)

    def child(self, rule: str, rho: Renaming | None, *parts) -> TraceNode:
        """A premise whose last part, a term, stands for rho acting on it.
        rho changes afterwards, so the pair keeps it as a Permutation."""
        if rho is not None and rho.image:
            parts = (*parts[:-1], (rho.permutation(), parts[-1]))
        return TraceNode(self.trace, self.id, rule, parts)

    @property
    def goal(self) -> str:
        return " ".join(map(_show, self.parts))

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "rule": self.rule, "goal": self.goal, "ok": self.ok}


class _Untraced(TraceNode):
    """The node of a check whose trace nobody asked for: it is its own
    premise, so nothing is kept.  Engines only write rule and ok, and read
    ok back only right after writing it."""

    __slots__ = ()

    def __init__(self):
        self.rule, self.ok = "", False

    def child(self, rule: str, rho: Renaming | None, *parts) -> TraceNode:
        return self


def trace_line(record: dict) -> str:
    """The text of a trace record: verdict, rule and goal."""
    return f"{'+' if record['ok'] else '-'} [{record['rule']}] {record['goal']}"


def _show(part) -> str:
    if isinstance(part, tuple):
        x, y = part
        part = Permutation.swap(x, y) if isinstance(y, Atom) else act(x, y)
    return print_term(part) if isinstance(part, Term) else str(part)


def trace_root(trace: list[TraceNode] | None, *parts) -> TraceNode:
    """The node of a check's goal, appended to trace; without a trace, a
    node that records nothing."""
    if trace is None:
        return _Untraced()
    return TraceNode(trace, None, "", parts)


class AlphaRules(NamedTuple):
    """What one engine adds to the shared rules."""

    prefix: str  # of the rule names, "~" or "eq-"
    var: Callable  # (ctx, p, q, rho, x): does ctx derive p.X ~ rho.q.X?
    rename: Callable  # (sig, ctx, gen, a, t, rho, node, bound): side-condition rule of [a] s ~ [b] rho.t, t not ground
    ground: str  # the rule of that side condition on a ground t, "#ground" or "fix-ground"
    measure: Callable | None = None  # (bound, s, t): this step's measure, an int asserted below bound


def derive(goal) -> bool:
    """The verdict of goal, a rule's generator: the one loop that derives
    premises.  A yielded premise is pushed, and once it returns its verdict
    is sent to the rule below it."""
    stack, ok = [goal], None
    while stack:
        try:
            stack.append(stack[-1].send(ok))
            ok = None
        except StopIteration as done:
            stack.pop()
            ok = done.value
    return ok


def alpha(rules: AlphaRules, sig, ctx, gen, s: Term, t: Term, rho: Renaming, node: TraceNode, bound=None):
    """The rule deciding ctx |- s ~ rho.t modulo the theories in sig, recording
    the derivation in node.  rho is carried down t, not applied: atoms of t
    are read through it, and renaming a binder composes one swapping onto it
    and undoes it once the premise is derived.  It dispatches on type(s), a
    clash unless t has the same type (see Term).  gen draws the new atoms of
    the fixed-point engine; the freshness engine draws none, and passes None."""
    if __debug__ and rules.measure is not None:
        bound = rules.measure(bound, s, t)  # rho.t has t's size
    pre = rules.prefix
    node.rule, ok, premises = "clash", False, ()  # unless a rule below applies
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
            # s1 ~ (a b').rho.t1 for b' = rho(b), then the side condition on rho.t1
            node.rule = pre + "abs-rename"
            rho.swap(a, b)
            ok = yield alpha(rules, sig, ctx, gen, s1, t1, rho, node.child("", rho, s1, "=?", t1), bound)
            rho.swap(a, b)
            if ok and free_vars(t1):
                ok = yield rules.rename(sig, ctx, gen, a, t1, rho, node, bound)
            elif ok:
                # a ground t1: a # rho.t1, or (a c1) fix rho.t1 for a new c1,
                # when a is not free in rho.t1; a leaf, so no measure is due
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
                    align = node.child(f"align-{i}", rho, s, "=?", t)
                    if (yield alpha(rules, sig, ctx, gen, s0, u0, rho, align.child("", rho, s0, "=?", u0), bound)) and (
                        yield alpha(rules, sig, ctx, gen, s1, u1, rho, align.child("", rho, s1, "=?", u1), bound)
                    ):
                        align.ok = ok = True
                        break
            elif th is Theory.AC:
                node.rule = pre + "app-AC"
                ss, ts = equational_args(s), equational_args(t)
                ok = len(ss) == len(ts) and (yield from _ac(rules, sig, ctx, gen, f, ss, ts, rho, node, bound))
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
            if not (yield alpha(rules, sig, ctx, gen, x, y, rho, node.child("", rho, x, "=?", y), bound)):
                ok = False
                break
    node.ok = ok
    return ok


def _ac(rules, sig, ctx, gen, f: str, ss: tuple, ts: tuple, rho: Renaming, node: TraceNode, bound):
    """Match ss against a permutation of rho.ts, as long, in one pass: each
    argument keeps the first remaining partner of its shape (see _shape) it
    matches, or the goal fails.  ~ is an equivalence, so a partner never
    needs giving back.  Each match but the last opens "rest-i" (i: the
    partner's index among those left)."""
    left, partners, rests = list(range(len(ts))), {}, []
    for j, t in enumerate(ts):
        partners.setdefault(_shape(t, rho.image), []).append(j)
    for s in ss:
        bucket = partners.get(_shape(s, {}), ())
        for k, j in enumerate(bucket):
            t = ts[j]
            if (yield alpha(rules, sig, ctx, gen, s, t, rho, node.child("", rho, s, "=?", t), bound)):
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


def _shape(t: Term, image: dict):
    """What ~ keeps of a flat term t read through image: its kind and size,
    and an atom's image, an application's symbol or a suspension's variable."""
    kind = type(t)
    if kind is AtomTerm:
        return image.get(t.atom, t.atom)
    if kind is Susp:
        return t.var
    return t.symbol if kind is App else kind, t._size
