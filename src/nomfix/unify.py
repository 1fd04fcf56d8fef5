"""Unification of nominal terms via fixed-point constraints.

A problem is a sequence of constraints, either equations s =? t or
fixed-point requests pi fix? t.  Simplification rewrites it until no rule
applies; a normal form with only consistent primitive fixed-point constraints
yields a solution (a fixed-point context together with a substitution).

The search keeps each problem incrementally (Martelli and Montanari, TOPLAS
1982): a worklist of the constraints no rule has been tried on, so a step
finds the next reducible one without rescanning the stuck ones; an index
from variables to constraints, so a binding rewrites only the constraints
that mention its variable; and the termination measure as counters, updated
by each step's delta.  Each constraint memoises its variables, its weight in
the measure and whether it is stuck, as terms memoise their size.

Given a signature, simplification splits in two at applications of
commutative symbols; without one, it treats every function symbol as
syntactic.  One depth-first search over these steps serves every solver:
unify and match follow its single path, is_more_general and nomfix.cunify
every branch.  It asserts the termination measure on every step and reads
each solution off its leaf's path of steps.  The paths share their
prefixes, and their union is the derivation tree, which nomfix.cunify
builds from them, replaying the steps, only when it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

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


class _Constraint:
    """Base class of the constraints.  They are immutable, so each keeps its
    variables (constraint_vars), its weight in the measure (_weight) and
    whether no non-instantiating rule applies to it (expand) in memo slots,
    filled the first time they are asked for."""

    __slots__ = ("_vars", "_weight", "_stuck")


@dataclass(frozen=True, slots=True)
class Eq(_Constraint):
    lhs: Term
    rhs: Term

    def atoms(self) -> set:
        return atoms_in(self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{print_term(self.lhs)} =? {print_term(self.rhs)}"


@dataclass(frozen=True, slots=True)
class Fix(_Constraint):
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
    out = getattr(c, "_vars", None)
    if out is None:
        out = free_vars(c.lhs) | free_vars(c.rhs) if isinstance(c, Eq) else free_vars(c.target)
        object.__setattr__(c, "_vars", out)
    return out


def problem_vars(pr: Problem) -> frozenset[Var]:
    return frozenset().union(*map(constraint_vars, pr))


def _weight(c: Constraint) -> int:
    """c's weight in the measure: the larger side's size for an equation,
    the target's size for a fixed-point constraint, and 0, no weight, for
    a primitive one."""
    w = getattr(c, "_weight", None)
    if w is None:
        if isinstance(c, Eq):
            w = max(term_size(c.lhs), term_size(c.rhs))
        else:
            w = 0 if is_primitive(c) else term_size(c.target)
        object.__setattr__(c, "_weight", w)
    return w


def _descending(weights) -> tuple:
    return tuple(sorted(weights, reverse=True))


def problem_measure(pr: Problem):
    """Termination measure: number of distinct variables, then the multiset
    of term sizes of equations (the larger side) and of non-primitive
    fixed-point constraints.  The search keeps it by delta (_State); this
    computes it from scratch.

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


class _State:
    """A problem under simplification, kept incrementally.

    The constraints sit in a dict under integer keys in problem order: a
    step's produced constraints take keys below all others, and a binding
    rewrites a constraint under its own key.  Two heaps of keys find the
    next step: todo holds the constraints no rule has been tried on here,
    inst the stuck equations that instantiate a variable.  Entries go stale
    when their constraint is consumed or rewritten; expand skips them.
    occ indexes the keys by variable, so a binding rewrites only what
    mentions its variable, and with the weights counter it carries the
    measure.  A step logs its removed and added weights in gone and new.
    """

    __slots__ = ("cons", "low", "todo", "inst", "occ", "weights", "vars_before", "gone", "new")

    def __init__(self, pr: Problem):
        self.cons: dict[int, Constraint] = {}
        self.low = 0
        self.todo: list[int] = []
        self.inst: list[int] = []
        self.occ: dict[Var, set[int]] = {}
        self.weights: dict[int, int] = {}  # weight -> how many constraints have it
        self.vars_before, self.gone, self.new = 0, [], []
        for k, c in enumerate(pr):
            self._add(k, c)

    def copy(self) -> _State:
        other = object.__new__(_State)
        other.cons, other.low, other.todo, other.inst = dict(self.cons), self.low, self.todo[:], self.inst[:]
        other.occ = {x: set(keys) for x, keys in self.occ.items()}
        other.weights, other.vars_before = self.weights.copy(), self.vars_before
        other.gone, other.new = self.gone[:], self.new[:]
        return other

    def problem(self) -> Problem:
        return tuple(self.cons[k] for k in sorted(self.cons))

    def measure(self):
        """problem_measure of problem(), read off the counters."""
        return len(self.occ), _descending(w for w, n in self.weights.items() for _ in range(n))

    def step_measures(self):
        """The measure before and after the last step, less the weights the
        step left alone: the multiset order compares A + C with B + C as it
        compares A with B."""
        return (self.vars_before, _descending(self.gone)), (len(self.occ), _descending(self.new))

    def _add(self, k: int, c: Constraint) -> None:
        self.cons[k] = c
        w = _weight(c)
        if w:
            self.weights[w] = self.weights.get(w, 0) + 1
            self.new.append(w)
        for x in constraint_vars(c):
            self.occ.setdefault(x, set()).add(k)
        heappush(self.todo, k)

    def consume(self, k: int) -> None:
        """Start a step by removing the constraint under key k."""
        self.vars_before, self.gone, self.new = len(self.occ), [], []
        self._remove(k)

    def _remove(self, k: int) -> Constraint:
        c = self.cons.pop(k)
        w = _weight(c)
        if w:
            self.weights[w] -= 1
            self.gone.append(w)
        for x in constraint_vars(c):
            keys = self.occ[x]
            keys.discard(k)
            if not keys:
                del self.occ[x]
        return c

    def prepend(self, produced) -> None:
        self.low -= len(produced)
        for k, c in enumerate(produced, self.low):
            self._add(k, c)

    def bind(self, x: Var, t: Term) -> None:
        """Apply x -> t to the constraints that mention x."""
        theta = Substitution({x: t})
        for k in list(self.occ.get(x, ())):
            c = self._remove(k)
            self._add(k, Eq(theta(c.lhs), theta(c.rhs)) if isinstance(c, Eq) else Fix(c.perm, theta(c.target)))


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


def _instantiation(c: Constraint, rigid: frozenset):
    """The instantiation step c allows, if any: (rule, suspension, other
    side), where the suspension's variable is not rigid and does not occur
    on the other side, the left side tried first."""
    if isinstance(c, Eq):
        s, t = c.lhs, c.rhs
        if isinstance(s, Susp) and s.var not in rigid and s.var not in free_vars(t):
            return "eq-inst1", s, t
        if isinstance(t, Susp) and t.var not in rigid and t.var not in free_vars(s):
            return "eq-inst2", t, s
    return None


def expand(
    st: _State,
    gen: NameGenerator,
    sig: Signature | None = None,
    rigid: frozenset = frozenset(),
):
    """One simplification step on the first reducible constraint.

    Returns a list of (child state, step) pairs: empty for a normal form,
    one entry for deterministic rules, two for commutative branching, which
    happens only when sig is given.  The last child is st itself, advanced
    in place; an earlier one is a copy.
    Non-instantiating rules are preferred over instantiation.
    """
    while st.todo:
        k = heappop(st.todo)
        c = st.cons.get(k)
        if c is None:
            continue
        got = None
        if not getattr(c, "_stuck", False):
            got = _fix_rule(c, gen, sig) if isinstance(c, Fix) else _eq_rule(c, gen, sig)
        if got is None:
            object.__setattr__(c, "_stuck", True)
            if _instantiation(c, rigid) is not None:
                heappush(st.inst, k)
            continue
        rule, children = got
        st.consume(k)
        states = [st.copy() for _ in children[1:]] + [st]
        for child, cons in zip(states, children):
            child.prepend(cons)
        return [(child, SimplStep(rule, c, tuple(cons))) for child, cons in zip(states, children)]
    while st.inst:
        k = heappop(st.inst)
        c = st.cons.get(k)
        got = None if c is None else _instantiation(c, rigid)
        if got is None:
            continue
        rule, side, other = got
        x, u = side.var, act(side.perm.inverse(), other)
        st.consume(k)
        st.bind(x, u)
        return [(st, SimplStep(rule, c, (), (x, u)))]
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


def _search(pr: Problem, sig, gen: NameGenerator, rigid: frozenset):
    """Depth-first search of the derivations of pr, last child first.

    Yields (normal form, path, failure, solution) for each leaf; path is the
    linked chain (step, parent path) back to the root, and failure is
    classify_normal_form's answer.  Each step's decrease of the measure is
    asserted from the step's delta.  The search builds a problem only at a
    leaf; the chains share their prefixes and together are the derivation
    tree, which nomfix.cunify builds on demand.
    """
    stack = [(_State(pr), None)]
    while stack:
        st, path = stack.pop()
        children = expand(st, gen, sig, rigid)
        if not children:
            nf = st.problem()
            failure = classify_normal_form(nf, rigid)
            yield nf, path, failure, None if failure else extract_solution(nf, path)
        for child, step in children:
            assert measure_decreases(*child.step_measures()), str(step)
            stack.append((child, (step, path)))


def _derive(pr, sig: Signature | None, gen: NameGenerator | None, theories, rigid=frozenset()):
    """Check that pr uses only symbols of the given theories, then search
    it: returns the leaves."""
    pr = tuple(pr)
    if sig is not None:
        for c in pr:
            for t in (c.lhs, c.rhs) if isinstance(c, Eq) else (c.target,):
                check_well_formed(sig, t, theories=theories)
    if gen is None:
        gen = generator_avoiding(atoms_in(*pr))
    return _search(pr, sig, gen, rigid)


def unify(
    pr, sig: Signature | None = None, gen: NameGenerator | None = None, rigid: frozenset = frozenset()
) -> UnifyResult:
    """Solve a syntactic unification problem (a sequence of constraints)."""
    ((nf, path, failure, solution),) = _derive(pr, sig, gen, (Theory.NONE,), rigid)
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

