"""Unification of nominal terms via fixed-point constraints.

A problem is a queue of constraints, either equations s =? t or fixed-point
requests pi fix? t.  Simplification rewrites the queue until no rule applies;
a normal form with only consistent primitive fixed-point constraints yields a
solution (a fixed-point context together with a substitution).

Given a signature, simplification splits in two at applications of
commutative symbols; without one, it treats every function symbol as
syntactic.  One depth-first search over these steps serves every solver:
unify and match follow its single path, is_more_general and nomfix.cunify
every branch.  It asserts the termination measure on every step and reads
each solution off its leaf's path of steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fixpoint import check_alpha_fixp, check_fixp
from .printer import print_perm, print_subst, print_term
from .syntax import (
    Abs,
    App,
    AtomTerm,
    FixpointContext,
    NameGenerator,
    Permutation,
    Signature,
    Substitution,
    Susp,
    Term,
    Theory,
    Tup,
    Var,
    act,
    atoms_in,
    check_well_formed,
    flatten,
    free_vars,
    generator_avoiding,
    is_pair,
    term_size,
)


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term

    def atoms(self) -> set:
        return atoms_in(self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{print_term(self.lhs)} =? {print_term(self.rhs)}"


@dataclass(frozen=True)
class Fix:
    perm: Permutation
    target: Term

    def atoms(self) -> set:
        return atoms_in(self.perm, self.target)

    def __str__(self) -> str:
        return f"{print_perm(self.perm)} fix? {print_term(self.target)}"


Constraint = Eq | Fix
Problem = tuple  # tuple[Constraint, ...]


@dataclass(frozen=True)
class SimplStep:
    """One simplification step: rule name, consumed constraint, produced
    constraints, and the variable binding for instantiation steps."""

    rule: str
    consumed: Constraint
    produced: tuple
    binding: tuple[Var, Term] | None = None

    def __str__(self) -> str:
        if self.binding is not None:
            x, t = self.binding
            return f"[{self.rule}] {self.consumed}  =>  {x} -> {print_term(t)}"
        prod = ", ".join(str(c) for c in self.produced) or "(nothing)"
        return f"[{self.rule}] {self.consumed}  =>  {prod}"


@dataclass
class Solution:
    """A solved form: a fixed-point context paired with a substitution."""

    context: FixpointContext
    subst: Substitution

    def key(self) -> str:
        return f"{self.context} |- {print_subst(self.subst)}"

    def __str__(self) -> str:
        return self.key()


@dataclass
class UnifyResult:
    status: str  # "solved" | "unsolvable"
    solution: Solution | None
    witness: Constraint | None
    witness_kind: str | None
    steps: list[SimplStep]
    normal_form: Problem

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def is_primitive(c: Constraint) -> bool:
    return isinstance(c, Fix) and isinstance(c.target, Susp) and not c.target.perm.swappings


def constraint_vars(c: Constraint) -> frozenset[Var]:
    if isinstance(c, Eq):
        return free_vars(c.lhs) | free_vars(c.rhs)
    return free_vars(c.target)


def problem_vars(pr: Problem) -> frozenset[Var]:
    return frozenset().union(*map(constraint_vars, pr))


def problem_measure(pr: Problem):
    """Termination measure: number of distinct variables, then the multiset
    of term sizes of equations (the larger side) and of non-primitive
    fixed-point constraints.

    Instantiation removes a variable; every other rule replaces one weight by
    smaller ones.  That includes both branches of the commutative rules:
    f(s0, s1) =? f(t0, t1) becomes two equations between arguments, and
    pi fix? f(t0, t1) becomes pi.ti =? ti, where pi.ti is as large as ti and
    smaller than f(t0, t1).  So one measure serves unify and c_unify.
    The multiset is encoded as a descending sequence compared lexicographically,
    which coincides with the multiset extension of < on naturals.
    """
    weights = []
    for c in pr:
        if isinstance(c, Eq):
            weights.append(max(term_size(c.lhs), term_size(c.rhs)))
        elif not is_primitive(c):
            weights.append(term_size(c.target))
    return (len(problem_vars(pr)), tuple(sorted(weights, reverse=True)))


def measure_decreases(before, after) -> bool:
    if after[0] < before[0]:
        return True
    if after[0] > before[0]:
        return False
    a, b = after[1], before[1]
    # descending sequences: strict prefix is smaller, else first difference decides
    if a == b:
        return False
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) < len(b)


def _apply_binding(pr: Problem, x: Var, t: Term) -> Problem:
    theta = Substitution({x: t})
    out = []
    for c in pr:
        if isinstance(c, Eq):
            out.append(Eq(theta(c.lhs), theta(c.rhs)))
        else:
            out.append(Fix(c.perm, theta(c.target)))
    return tuple(out)


def _fixes(entries) -> list[Fix]:
    return [Fix(p, Susp(Permutation.identity(), y)) for p, y in entries]


def _fix_rule(c: Fix, gen: NameGenerator, sig: Signature | None):
    """Return (rule, [children]) where each child is a constraint list, or
    None when no non-instantiating rule applies."""
    p, t = c.perm, c.target
    match t:
        case AtomTerm(a):
            if p(a) == a:
                return "fix-atom", [[]]
            return None
        case App(f, arg):
            if sig is not None and sig.theory(f) is Theory.C and is_pair(arg):
                t0, t1 = arg.items
                return "fix-app-C", [
                    [Eq(act(p, t0), t0), Eq(act(p, t1), t1)],
                    [Eq(act(p, t0), t1), Eq(act(p, t1), t0)],
                ]
            return "fix-app", [[Fix(p, arg)]]
        case Tup(items):
            return "fix-tuple", [[Fix(p, s) for s in items]]
        case Abs(a, body):
            c1, new = gen.newness(body)
            return "fix-abs", [[Fix(p, act(Permutation.swap(a, c1), body))] + _fixes(new)]
        case Susp(q, x):
            if q.swappings:
                return "fix-var", [[Fix(p.conjugate(q.inverse()), Susp(Permutation.identity(), x))]]
            return None
    raise TypeError(f"not a term: {t!r}")


def _eq_rule(c: Eq, gen: NameGenerator, sig: Signature | None):
    s, t = c.lhs, c.rhs
    match (s, t):
        case (AtomTerm(a), AtomTerm(b)):
            if a == b:
                return "eq-atom", [[]]
            return None
        case (App(f, sarg), App(g, targ)) if f == g:
            if sig is not None and sig.theory(f) is Theory.C and is_pair(sarg) and is_pair(targ):
                s0, s1 = sarg.items
                t0, t1 = targ.items
                return "eq-app-C", [
                    [Eq(s0, t0), Eq(s1, t1)],
                    [Eq(s0, t1), Eq(s1, t0)],
                ]
            return "eq-app", [[Eq(sarg, targ)]]
        case (Tup(xs), Tup(ys)) if len(xs) == len(ys):
            return "eq-tuple", [[Eq(x, y) for x, y in zip(xs, ys)]]
        case (Abs(a, s1), Abs(b, t1)):
            if a == b:
                return "eq-abs", [[Eq(s1, t1)]]
            c1, new = gen.newness(t1)
            return "eq-abs-rename", [
                [Eq(s1, act(Permutation.swap(a, b), t1)), Fix(Permutation.swap(a, c1), t1)] + _fixes(new)
            ]
        case (Susp(p, x), Susp(q, y)) if x == y:
            return "eq-var", [[Fix(q.inverse().compose(p), Susp(Permutation.identity(), x))]]
    return None


def expand(
    pr: Problem,
    gen: NameGenerator,
    sig: Signature | None = None,
    rigid: frozenset = frozenset(),
):
    """One simplification step on the first reducible constraint.

    Returns a list of (child problem, step) pairs: empty for a normal form,
    one entry for deterministic rules, two for commutative branching, which
    happens only when sig is given.
    Non-instantiating rules are preferred over instantiation.
    """
    for i, c in enumerate(pr):
        if isinstance(c, Fix):
            got = _fix_rule(c, gen, sig)
        else:
            got = _eq_rule(c, gen, sig)
        if got is None:
            continue
        rule, children = got
        rest = pr[:i] + pr[i + 1 :]
        out = []
        for cons in children:
            out.append((tuple(cons) + rest, SimplStep(rule, c, tuple(cons))))
        return out
    for i, c in enumerate(pr):
        if not isinstance(c, Eq):
            continue
        rest = pr[:i] + pr[i + 1 :]
        s, t = c.lhs, c.rhs
        if isinstance(s, Susp) and s.var not in rigid and s.var not in free_vars(t):
            x, u = s.var, act(s.perm.inverse(), t)
            return [(_apply_binding(rest, x, u), SimplStep("eq-inst1", c, (), (x, u)))]
        if isinstance(t, Susp) and t.var not in rigid and t.var not in free_vars(s):
            x, u = t.var, act(t.perm.inverse(), s)
            return [(_apply_binding(rest, x, u), SimplStep("eq-inst2", c, (), (x, u)))]
    return []


def classify_normal_form(pr: Problem, rigid: frozenset = frozenset()):
    """Return (kind, witness) for a failed normal form, or None on success."""
    for c in pr:
        if isinstance(c, Eq):
            s, t = c.lhs, c.rhs
            if isinstance(s, Susp) and s.var in free_vars(t):
                return "occurs", c
            if isinstance(t, Susp) and t.var in free_vars(s):
                return "occurs", c
            if (isinstance(s, Susp) and s.var in rigid) or (
                isinstance(t, Susp) and t.var in rigid
            ):
                return "rigid", c
            return "clash", c
        if isinstance(c.target, AtomTerm):
            return "fixpoint-inconsistency", c
        assert is_primitive(c), f"unexpected constraint in normal form: {c}"
    return None


def extract_solution(pr: Problem, path) -> Solution:
    """The solution at a successful normal form pr, reached by path, a linked
    chain (step, parent path) back to the root.  The bindings are resolved
    in one pass from the leaf back to the root: a binding never mentions a
    variable bound before it, so it is final once the later ones are
    applied to it."""
    pairs = [(c.perm, c.target.var) for c in pr if c.perm.swappings]
    sigma = Substitution()
    while path is not None:
        step, path = path
        if step.binding is not None:
            x, t = step.binding
            sigma.bindings[x] = sigma(t)
    return Solution(FixpointContext(frozenset(pairs)), sigma)


@dataclass
class DerivationNode:
    """A node of the derivation tree: the problem at this point, the rule
    that produced the children, and for leaves the outcome."""

    problem: tuple
    rule: str | None = None
    children: list["DerivationNode"] = field(default_factory=list)
    leaf_kind: str | None = None  # "success" or a failure kind
    solution: Solution | None = None

    def to_dict(self) -> dict:
        out: dict = {"constraints": [str(c) for c in self.problem]}
        if self.rule:
            out["rule"] = self.rule
        if self.leaf_kind:
            out["leaf"] = self.leaf_kind
        if self.solution is not None:
            out["solution"] = self.solution.key()
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        head = "; ".join(str(c) for c in self.problem) or "(empty)"
        tag = f" [{self.rule}]" if self.rule else ""
        tag += f" <{self.leaf_kind}>" if self.leaf_kind else ""
        lines = ["  " * indent + head + tag]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)


def _search(pr: Problem, sig, gen: NameGenerator, rigid: frozenset, root: DerivationNode | None = None):
    """Depth-first search of the derivations of pr, last child first.

    Yields (normal form, path, failure, solution) for each leaf; path is the
    linked chain (step, parent path) back to the root, and failure is
    classify_normal_form's answer.  Each node's measure is computed once and
    its decrease asserted once per step.  Given a root node for pr, the search
    fills it in as the derivation tree.
    """
    stack = [(pr, None, problem_measure(pr) if __debug__ else None, root)]
    while stack:
        pr, path, measure, node = stack.pop()
        children = expand(pr, gen, sig, rigid)
        if not children:
            failure = classify_normal_form(pr, rigid)
            solution = None if failure else extract_solution(pr, path)
            if node is not None:
                node.leaf_kind = failure[0] if failure else "success"
                node.solution = solution
            yield pr, path, failure, solution
        for child, step in children:
            after = problem_measure(child) if __debug__ else None
            assert measure_decreases(measure, after), str(step)
            sub = None
            if node is not None:
                node.rule = step.rule
                sub = DerivationNode(child)
                node.children.append(sub)
            stack.append((child, (step, path), after, sub))


def _derive(pr, sig: Signature | None, gen: NameGenerator | None, theories, rigid=frozenset(), tree=False):
    """Check that pr uses only symbols of the given theories, then search
    it: returns the root of its derivation tree (None unless tree) and the
    leaves."""
    pr = tuple(pr)
    if sig is not None:
        for c in pr:
            for t in (c.lhs, c.rhs) if isinstance(c, Eq) else (c.target,):
                check_well_formed(sig, t, theories=theories)
    if gen is None:
        gen = generator_avoiding(atoms_in(*pr))
    root = DerivationNode(pr) if tree else None
    return root, _search(pr, sig, gen, rigid, root)


def unify(
    pr, sig: Signature | None = None, gen: NameGenerator | None = None, rigid: frozenset = frozenset()
) -> UnifyResult:
    """Solve a syntactic unification problem (a sequence of constraints)."""
    _, leaves = _derive(pr, sig, gen, (Theory.NONE,), rigid)
    ((nf, path, failure, solution),) = leaves
    steps = []
    while path is not None:
        step, path = path
        steps.append(step)
    steps.reverse()
    if failure is None:
        return UnifyResult("solved", solution, None, None, steps, nf)
    kind, witness = failure
    return UnifyResult("unsolvable", None, witness, kind, steps, nf)


def match(pr, rigid, sig: Signature | None = None, gen: NameGenerator | None = None) -> UnifyResult:
    """Match left-hand sides against right-hand sides: variables in rigid are
    never instantiated.  Equations must keep rigid variables on the right and
    instantiable variables on the left."""
    pr = tuple(pr)
    rigid = frozenset(rigid)
    for c in pr:
        if isinstance(c, Eq):
            if free_vars(c.lhs) & rigid or free_vars(c.rhs) - rigid:
                raise ValueError(f"equation violates the matching variable split: {c}")
    return unify(pr, sig=sig, gen=gen, rigid=rigid)


def is_more_general(
    sol1: Solution,
    sol2: Solution,
    variables,
    sig: Signature | None = None,
) -> bool:
    """Whether sol1 subsumes sol2 over the given variables: some substitution
    carries each X sol1 to something equivalent to X sol2 under sol2's
    context, and sol2's context supports sol1's constraints so instantiated.

    The carrying substitution is searched for by matching; candidates are then
    verified directly with the checking engines.
    """
    sig = sig or Signature(permissive=True)
    variables = sorted(set(variables))
    lhs = [sol1.subst(Susp(Permutation.identity(), x)) for x in variables]
    rhs = [sol2.subst(Susp(Permutation.identity(), x)) for x in variables]
    if sig.has_equational_symbols():
        lhs = [flatten(sig, t) for t in lhs]
        rhs = [flatten(sig, t) for t in rhs]
    rigid = frozenset().union(*(free_vars(t) for t in rhs)) if rhs else frozenset()
    problem = tuple(Eq(s, t) for s, t in zip(lhs, rhs))
    gen = generator_avoiding(atoms_in(*problem, sol1.context, sol2.context))
    for _, _, _, cand in _search(problem, sig, gen, rigid):
        if cand is None:
            continue
        sigma1p = sol1.subst.compose(cand.subst)
        ok = all(
            check_alpha_fixp(sig, sol2.context, sigma1p(Susp(Permutation.identity(), x)), t)
            for x, t in zip(variables, rhs)
        )
        if not ok:
            continue
        if all(
            check_fixp(sig, sol2.context, p, cand.subst(Susp(Permutation.identity(), y)))
            for p, y in sol1.context.constraints
        ):
            return True
    return False

