"""The alpha-equivalence rules shared by the freshness and fixed-point
engines, and the derivation traces both engines build.

The two presentations of s ~ t differ only in the rule for two suspensions
of one variable and in the side condition for renaming an abstraction; each
engine supplies those, its rule-name prefix and, for the fixed-point engine,
a termination-measure check, as an AlphaRules value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .printer import print_term
from .syntax import Abs, App, AtomTerm, Renaming, Susp, Term, Theory, Tup, act, equational_args, is_pair


@dataclass(slots=True)
class TraceNode:
    """One judgement of a derivation: the rule that decided it, the goal's
    parts (atoms, permutations, terms and keywords, printed only when read),
    whether it holds, and its premises.  A part may be a (permutation, term)
    pair, which stands for the permutation acting on the term."""

    rule: str
    parts: tuple
    ok: bool = False
    children: list[TraceNode] = field(default_factory=list)

    def child(self, rule: str, rho: Renaming | None, *parts) -> TraceNode:
        """A premise whose last part, a term, stands for rho acting on it.
        rho changes afterwards, so the pair keeps it as a Permutation."""
        if rho is not None and rho.image:
            parts = (*parts[:-1], (rho.permutation(), parts[-1]))
        node = TraceNode(rule, parts)
        self.children.append(node)
        return node

    @property
    def goal(self) -> str:
        return " ".join(map(_show, self.parts))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "goal": self.goal,
            "ok": self.ok,
            "children": [c.to_dict() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        mark = "+" if self.ok else "-"
        lines = ["  " * indent + f"{mark} [{self.rule}] {self.goal}"]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)


class _Untraced(TraceNode):
    """The node of a check whose trace nobody asked for: it is its own
    premise, so nothing is kept.  Engines only write rule and ok, and read
    ok back only right after writing it."""

    __slots__ = ()

    def child(self, rule: str, rho: Renaming | None, *parts) -> TraceNode:
        return self


def _show(part) -> str:
    if isinstance(part, tuple):
        part = act(*part)
    return print_term(part) if isinstance(part, Term) else str(part)


def trace_root(trace: list[TraceNode] | None, *parts) -> TraceNode:
    """The root node of a check's derivation, appended to trace; without a
    trace, a node that records nothing."""
    if trace is None:
        return _Untraced("", parts)
    node = TraceNode("", parts)
    trace.append(node)
    return node


class AlphaRules(NamedTuple):
    """What one engine adds to the shared rules."""

    prefix: str  # of the rule names, "~" or "eq-"
    var: Callable  # (ctx, p, q, x): does ctx derive p.X ~ q.X?
    rename: Callable  # (sig, ctx, gen, a, t, rho, node, bound): side condition of [a] s ~ [b] rho.t
    measure: Callable | None = None  # (bound, s, t): this step's measure, asserted below bound


def alpha(rules: AlphaRules, sig, ctx, gen, s: Term, t: Term, rho: Renaming, node: TraceNode, bound=None) -> bool:
    """Decide ctx |- s ~ rho.t modulo the theories in sig, recording the
    derivation in node.  rho is carried down t, not applied: atoms of t are
    read through it, and renaming a binder composes one swapping onto it and
    undoes it on return.  Premises recurse straight into alpha, so every
    level of nesting costs one Python frame."""
    if __debug__ and rules.measure is not None:
        bound = rules.measure(bound, s, t)  # rho.t has t's size
    pre = rules.prefix
    ok, premises = True, ()
    match (s, t):
        case (AtomTerm(a), AtomTerm(b)):
            node.rule = pre + "atom"
            ok = a == rho.image.get(b, b)
        case (Susp(p, x), Susp(q, y)) if x == y:
            node.rule = pre + "var"
            ok = rules.var(ctx, p, rho.compose(q), x)
        case (Tup(xs), Tup(ys)) if len(xs) == len(ys):
            node.rule = pre + "tuple"
            premises = zip(xs, ys)
        case (Abs(a, s1), Abs(b, t1)) if a == rho.image.get(b, b):
            node.rule = pre + "abs"
            premises = ((s1, t1),)
        case (Abs(a, s1), Abs(b, t1)):
            # s1 ~ (a b').rho.t1 for b' = rho(b), then the side condition on rho.t1
            node.rule = pre + "abs-rename"
            b = rho.image.get(b, b)
            rho.swap(a, b)
            ok = alpha(rules, sig, ctx, gen, s1, t1, rho, node.child("", rho, s1, "=?", t1), bound)
            rho.swap(a, b)
            ok = ok and rules.rename(sig, ctx, gen, a, t1, rho, node, bound)
        case (App(f, sarg), App(g, targ)) if f == g:
            th = sig.theory(f)
            if th is Theory.C and is_pair(sarg) and is_pair(targ):
                node.rule = pre + "app-C"
                (s0, s1), (t0, t1) = sarg.items, targ.items
                ok = False
                for i, (u0, u1) in enumerate(((t0, t1), (t1, t0))):
                    attempt = node.child(f"align-{i}", rho, s, "=?", t)
                    if alpha(rules, sig, ctx, gen, s0, u0, rho, attempt.child("", rho, s0, "=?", u0), bound) and alpha(
                        rules, sig, ctx, gen, s1, u1, rho, attempt.child("", rho, s1, "=?", u1), bound
                    ):
                        attempt.ok = ok = True
                        break
            elif th is Theory.AC:
                node.rule = pre + "app-AC"
                ok = _ac(rules, sig, ctx, gen, f, equational_args(sig, s), equational_args(sig, t), rho, node, bound)
            elif th is Theory.A:
                node.rule = pre + "app-A"
                ss, ts = equational_args(sig, s), equational_args(sig, t)
                ok, premises = len(ss) == len(ts), zip(ss, ts)
            else:
                node.rule = pre + "app"
                premises = ((sarg, targ),)
        case _:
            node.rule = "clash"
            ok = False
    if ok:
        for x, y in premises:
            if not alpha(rules, sig, ctx, gen, x, y, rho, node.child("", rho, x, "=?", y), bound):
                ok = False
                break
    node.ok = ok
    return ok


def _ac(rules, sig, ctx, gen, f: str, ss: list[Term], ts: list[Term], rho: Renaming, node: TraceNode, bound) -> bool:
    """Match the arguments ss against a permutation of rho.ts: pick a
    partner for the head, then match the rest ("f remainder")."""
    if len(ss) != len(ts):
        return False
    if len(ss) == 1:
        return alpha(rules, sig, ctx, gen, ss[0], ts[0], rho, node.child("", rho, ss[0], "=?", ts[0]), bound)
    head = ss[0]
    for i, cand in enumerate(ts):
        if alpha(rules, sig, ctx, gen, head, cand, rho, node.child("", rho, head, "=?", cand), bound):
            rest = node.child(f"rest-{i}", None, f, "remainder")
            if _ac(rules, sig, ctx, gen, f, ss[1:], ts[:i] + ts[i + 1 :], rho, rest, bound):
                rest.ok = True
                return True
    return False
