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
from .syntax import Abs, App, AtomTerm, Permutation, Susp, Term, Theory, Tup, act, equational_args, is_pair


@dataclass(slots=True)
class TraceNode:
    """One judgement of a derivation: the rule that decided it, the goal's
    parts (atoms, permutations, terms and keywords, printed only when read),
    whether it holds, and its premises."""

    rule: str
    parts: tuple
    ok: bool = False
    children: list[TraceNode] = field(default_factory=list)

    def child(self, rule: str, *parts) -> TraceNode:
        node = TraceNode(rule, parts)
        self.children.append(node)
        return node

    @property
    def goal(self) -> str:
        return " ".join(print_term(p) if isinstance(p, Term) else str(p) for p in self.parts)

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

    def child(self, rule: str, *parts) -> TraceNode:
        return self


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
    rename: Callable  # (sig, ctx, gen, a, t, node, bound): side condition of [a] s ~ [b] t
    measure: Callable | None = None  # (bound, s, t): this step's measure, asserted below bound


def alpha(rules: AlphaRules, sig, ctx, gen, s: Term, t: Term, node: TraceNode, bound=None) -> bool:
    """Decide ctx |- s ~ t modulo the theories in sig, recording the
    derivation in node.  Premises recurse straight into alpha, so every
    level of nesting costs one Python frame."""
    if __debug__ and rules.measure is not None:
        bound = rules.measure(bound, s, t)
    pre = rules.prefix
    ok, premises = True, ()
    match (s, t):
        case (AtomTerm(a), AtomTerm(b)):
            node.rule = pre + "atom"
            ok = a == b
        case (Susp(p, x), Susp(q, y)) if x == y:
            node.rule = pre + "var"
            ok = rules.var(ctx, p, q, x)
        case (Tup(xs), Tup(ys)) if len(xs) == len(ys):
            node.rule = pre + "tuple"
            premises = zip(xs, ys)
        case (Abs(a, s1), Abs(b, t1)) if a == b:
            node.rule = pre + "abs"
            premises = ((s1, t1),)
        case (Abs(a, s1), Abs(b, t1)):
            node.rule = pre + "abs-rename"
            t2 = act(Permutation.swap(a, b), t1)
            ok = alpha(rules, sig, ctx, gen, s1, t2, node.child("", s1, "=?", t2), bound) and rules.rename(
                sig, ctx, gen, a, t1, node, bound
            )
        case (App(f, sarg), App(g, targ)) if f == g:
            th = sig.theory(f)
            if th is Theory.C and is_pair(sarg) and is_pair(targ):
                node.rule = pre + "app-C"
                (s0, s1), (t0, t1) = sarg.items, targ.items
                ok = False
                for i, (u0, u1) in enumerate(((t0, t1), (t1, t0))):
                    attempt = node.child(f"align-{i}", s, "=?", t)
                    if alpha(rules, sig, ctx, gen, s0, u0, attempt.child("", s0, "=?", u0), bound) and alpha(
                        rules, sig, ctx, gen, s1, u1, attempt.child("", s1, "=?", u1), bound
                    ):
                        attempt.ok = ok = True
                        break
            elif th is Theory.AC:
                node.rule = pre + "app-AC"
                ok = _ac(rules, sig, ctx, gen, f, equational_args(sig, s), equational_args(sig, t), node, bound)
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
            if not alpha(rules, sig, ctx, gen, x, y, node.child("", x, "=?", y), bound):
                ok = False
                break
    node.ok = ok
    return ok


def _ac(rules, sig, ctx, gen, f: str, ss: list[Term], ts: list[Term], node: TraceNode, bound) -> bool:
    """Match the arguments ss against a permutation of ts: pick a partner
    for the head, then match the rest ("f remainder")."""
    if len(ss) != len(ts):
        return False
    if len(ss) == 1:
        return alpha(rules, sig, ctx, gen, ss[0], ts[0], node.child("", ss[0], "=?", ts[0]), bound)
    head = ss[0]
    for i, cand in enumerate(ts):
        if alpha(rules, sig, ctx, gen, head, cand, node.child("", head, "=?", cand), bound):
            rest = node.child(f"rest-{i}", f, "remainder")
            if _ac(rules, sig, ctx, gen, f, ss[1:], ts[:i] + ts[i + 1 :], rest, bound):
                rest.ok = True
                return True
    return False
