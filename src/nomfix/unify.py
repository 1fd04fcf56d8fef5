"""Unification of nominal terms via fixed-point constraints.

A problem is a sequence of constraints, either equations s =? t or
fixed-point requests pi fix? t.  Simplification rewrites it until no rule
applies; a normal form with only consistent primitive fixed-point constraints
yields a solution (a fixed-point context together with a substitution).

The search keeps each problem incrementally (Martelli and Montanari, TOPLAS
1982): a worklist of the constraints no rule has been tried on, so a step
finds the next reducible one without rescanning the stuck ones; an index
from variables to constraints, so a binding rewrites only the constraints
that mention its variable, and whose size is the measure's variable count.
The termination measure's decrease is checked from each step alone: the
constraint it consumes, those it produces, and the variable count before
and after.  A constraint's weight in the measure and its variables are
set when it is built, from its terms' sizes and variables, which every term
carries from its own construction; each constraint memoises whether it is
stuck and, if its rule splits, the split's alternatives.

So a step pays for its rule and for the constraints it consumes and
produces, and reads the measure's data off them.

Simplification splits in two at applications of the signature's
commutative symbols; given none, unify and match take a permissive one,
in which every function symbol is syntactic.  A step is chosen in three
tiers, each on the lowest key it applies to: a rule that does not split,
then an instantiation, then a split.  Only a split is a choice; the other
steps may run in any order (Martelli and Montanari), so each runs once
above the splits, not once in every branch.  A split's alternatives are
derived once, when the first tier meets its constraint, so the branches
below share its child constraints and their memos.  One depth-first
search over these steps serves every solver: unify and match follow its
single path, is_more_general every branch, and nomfix.cunify every branch
of each part of a problem that shares no variable with the rest.  It asserts
the termination measure on every step and reads each solution off its
leaf's path of steps.  The paths share their prefixes, and their union is
the derivation tree, whose records nomfix.cunify reads off them only when
it is asked for.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from .fixpoint import check_alpha_fixp, check_fixp
from .printer import print_bindings, print_perm, print_subst, print_term
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
    _Fields,
    _Value,
    act,
    atoms_in,
    check_well_formed,
    flatten,
    free_vars,
    generator_avoiding,
    is_pair,
)


class _Constraint(_Value):
    """Base class of the constraints.  They are immutable; a constructor sets
    the variables and the measure's weight (_weight) from its terms' own,
    without a walk, and rejects a non-term as the term constructors do.
    _tried memoises what expand's first tier found, None until asked: () when
    no non-instantiating rule applies, else the rule and alternatives of a
    split.  A search writes a split before it reads it, so it never reads one
    another search wrote.  ==, hash and repr leave these slots out."""

    __slots__ = ("_vars", "_weight", "_tried")


class Eq(_Constraint):
    __slots__ = __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        try:
            m, n, u, v = lhs._size, rhs._size, lhs._vars, rhs._vars
        except AttributeError:
            raise TypeError(f"not a term: {rhs if hasattr(lhs, '_vars') else lhs!r}") from None
        _set_cvars(self, u if v <= u else v if u <= v else u | v)
        _set_cweight(self, m if m > n else n)
        _set_tried(self, None)

    def atoms(self) -> set:
        return atoms_in(self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{print_term(self.lhs)} =? {print_term(self.rhs)}"


class Fix(_Constraint):
    __slots__ = __match_args__ = ("perm", "target")

    def __init__(self, perm: Permutation, target: Term):
        _set_perm(self, perm)
        _set_target(self, target)
        try:
            _set_cvars(self, target._vars)
            _set_cweight(self, 0 if type(target) is Susp and not target.perm.swappings else target._size)
        except AttributeError:
            raise TypeError(f"not a term: {target!r}") from None
        _set_tried(self, None)

    def atoms(self) -> set:
        return atoms_in(self.perm, self.target)

    def __str__(self) -> str:
        return f"{print_perm(self.perm)} fix? {print_term(self.target)}"


_set_lhs, _set_rhs, _set_perm, _set_target = Eq.lhs.__set__, Eq.rhs.__set__, Fix.perm.__set__, Fix.target.__set__
_set_cvars, _set_cweight, _set_tried = (d.__set__ for d in (_Constraint._vars, _Constraint._weight, _Constraint._tried))
Constraint = Eq | Fix
Problem = tuple  # tuple[Constraint, ...]


class SimplStep(NamedTuple):
    """One simplification step: rule name, consumed constraint, produced
    constraints, and the variable binding for instantiation steps.  The
    search builds steps with tuple.__new__, past this class's own __new__."""

    rule: str
    consumed: Constraint
    produced: tuple
    binding: tuple[Var, Term] | None = None

    def __str__(self) -> str:
        b = self.binding
        return step_line(self.rule, self.consumed, b and (b[0], print_term(b[1])), self.produced)


def step_line(rule: str, consumed, binding, produced) -> str:
    """The text of a step, as unify's trace and cunify's tree print it:
    [rule] consumed  =>  the binding, a pair (variable, term), if there is
    one, else the produced constraints."""
    result = f"{binding[0]} -> {binding[1]}" if binding else ", ".join(map(str, produced)) or "(nothing)"
    return f"[{rule}] {consumed}  =>  {result}"


class Solution(_Fields):
    """A solved form: a fixed-point context paired with a substitution, not
    changed once built.  So its bindings are printed once (print_bindings),
    on first use unless given, and kept: key(), c_unify's sort key and
    text, and --json read them."""

    __slots__ = ("context", "subst", "_bindings", "_key")
    __match_args__ = ("context", "subst")

    def __init__(self, context: FixpointContext, subst: Substitution, bindings: list[tuple[str, str]] | None = None):
        self.context, self.subst, self._bindings, self._key = context, subst, bindings, None

    def bindings(self) -> list[tuple[str, str]]:
        if self._bindings is None:
            self._bindings = print_bindings(self.subst)
        return self._bindings

    def key(self) -> str:
        if self._key is None:
            self._key = f"{self.context} |- {print_subst(self.subst, self.bindings())}"
        return self._key

    def __str__(self) -> str:
        return self.key()


class UnifyResult(_Fields):
    __slots__ = __match_args__ = ("status", "solution", "witness", "witness_kind", "steps", "normal_form")

    def __init__(self, status: str, solution: Solution | None, witness: Constraint | None,
                 witness_kind: str | None, steps: list[SimplStep], normal_form: Problem):
        self.status, self.solution, self.witness = status, solution, witness  # status: "solved" | "unsolvable"
        self.witness_kind, self.steps, self.normal_form = witness_kind, steps, normal_form

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def problem_vars(pr: Problem) -> frozenset[Var]:
    return frozenset().union(*[c._vars for c in pr])


def problem_measure(pr: Problem):
    """Termination measure: number of distinct variables, then the multiset
    of term sizes of equations (the larger side) and of non-primitive
    fixed-point constraints, read off each constraint's _vars and _weight.
    The search asserts its decrease from each step (_step_decreases); this
    computes it over a whole problem.

    Instantiation removes a variable; every other rule replaces one weight by
    smaller ones.  That includes both branches of the commutative rules:
    f(s0, s1) =? f(t0, t1) becomes two equations between arguments, and
    pi fix? f(t0, t1) becomes pi.ti =? ti, where pi.ti is as large as ti and
    smaller than f(t0, t1).  So one measure serves unify and c_unify.
    The multiset is encoded as a descending sequence compared lexicographically,
    which coincides with the multiset extension of < on naturals.
    """
    return len(problem_vars(pr)), tuple(sorted((c._weight for c in pr if c._weight), reverse=True))


def _step_decreases(step: SimplStep, before: int, after: int) -> bool:
    """Whether step, which took the variable count from before to after,
    lowers the measure.  An instantiation must remove a variable.  Any
    other step must not add one, and at an equal count it replaces one
    weight by others, so the multiset falls exactly when each of them is
    below it."""
    if step.binding is not None or after != before:
        return after < before
    w = step.consumed._weight
    for c in step.produced:
        if c._weight >= w:
            return False
    return w > 0


class _State:
    """A problem under simplification, kept incrementally.

    The constraints sit in a dict under integer keys in problem order: a
    step's produced constraints take keys below all others, and a binding
    rewrites a constraint under its own key.  Three heaps of keys find the
    next step: todo holds the constraints no rule has been tried on here,
    inst the stuck equations, which may instantiate a variable, and split
    the constraints whose rule splits.  Entries of inst and split go stale
    when their constraint is consumed or rewritten; expand skips them, and a
    rewritten constraint is tried again and, if it splits, pushed again.
    occ indexes the keys by variable, so a binding rewrites only what
    mentions its variable, and its size is the measure's variable count.
    """

    __slots__ = ("cons", "low", "todo", "inst", "split", "occ")

    def __init__(self, pr: Problem):
        self.cons: dict[int, Constraint] = {}
        self.low = 0
        self.todo, self.inst, self.split = [], [], []
        self.occ: dict[Var, set[int]] = {}
        for k, c in enumerate(pr):
            self._add(k, c)

    def copy(self) -> _State:
        other = object.__new__(_State)
        other.cons, other.low, other.occ = dict(self.cons), self.low, {x: set(keys) for x, keys in self.occ.items()}
        other.todo, other.inst, other.split = self.todo[:], self.inst[:], self.split[:]
        return other

    def problem(self) -> Problem:
        return tuple(self.cons[k] for k in sorted(self.cons))

    def _add(self, k: int, c: Constraint) -> None:
        self.cons[k] = c
        occ = self.occ
        for x in c._vars:
            keys = occ.get(x)
            if keys is None:
                occ[x] = {k}
            else:
                keys.add(k)
        heappush(self.todo, k)

    def consume(self, k: int) -> Constraint:
        """Remove and return the constraint under key k."""
        c = self.cons.pop(k)
        occ = self.occ
        for x in c._vars:
            keys = occ[x]
            keys.discard(k)
            if not keys:
                del occ[x]
        return c

    def prepend(self, produced) -> None:
        self.low -= len(produced)
        for k, c in enumerate(produced, self.low):
            self._add(k, c)

    def bind(self, x: Var, t: Term) -> None:
        """Apply x -> t to the constraints that mention x, if any do."""
        keys = self.occ.get(x)
        if not keys:
            return
        theta = Substitution({x: t})
        for k in list(keys):
            c = self.consume(k)
            self._add(k, Eq(theta(c.lhs), theta(c.rhs)) if type(c) is Eq else Fix(c.perm, theta(c.target)))


def _fixes(entries) -> list[Fix]:
    return [Fix(p, Susp(Permutation.identity(), y)) for p, y in entries]


def _fix_rule(c: Fix, gen: NameGenerator, sig: Signature):
    """Return (rule, [children]) where each child is a tuple of constraints,
    or None when no non-instantiating rule applies."""
    p, t = c.perm, c.target
    kind = type(t)
    if kind is AtomTerm:
        a = t.atom
        return ("fix-atom", [()]) if p(a) is a else None
    if kind is App:
        arg = t.arg
        if sig.theory(t.symbol) is Theory.C and is_pair(arg):
            t0, t1 = arg.items
            p0, p1 = act(p, t0), act(p, t1)
            return "fix-app-C", [(Eq(p0, t0), Eq(p1, t1)), (Eq(p0, t1), Eq(p1, t0))]
        return "fix-app", [(Fix(p, arg),)]
    if kind is Tup:
        return "fix-tuple", [tuple(Fix(p, s) for s in t.items)]
    if kind is Abs:
        body = t.body
        c1, new = gen.newness(body)
        return "fix-abs", [(Fix(p, act(Permutation.swap(t.binder, c1), body)), *_fixes(new))]
    if kind is Susp:
        if not t.perm.swappings:
            return None
        return "fix-var", [(Fix(p.conjugate(t.perm.inverse()), Susp(Permutation.identity(), t.var)),)]
    raise TypeError(f"not a term: {t!r}")


def _eq_rule(c: Eq, gen: NameGenerator, sig: Signature):
    s, t = c.lhs, c.rhs
    kind = type(s)
    if kind is not type(t):
        return None
    if kind is AtomTerm:
        return ("eq-atom", [()]) if s.atom is t.atom else None
    if kind is App:
        f, sarg, targ = s.symbol, s.arg, t.arg
        if f != t.symbol:
            return None
        if sig.theory(f) is Theory.C and is_pair(sarg) and is_pair(targ):
            s0, s1 = sarg.items
            t0, t1 = targ.items
            return "eq-app-C", [
                (Eq(s0, t0), Eq(s1, t1)),
                (Eq(s0, t1), Eq(s1, t0)),
            ]
        return "eq-app", [(Eq(sarg, targ),)]
    if kind is Tup:
        xs, ys = s.items, t.items
        return ("eq-tuple", [tuple(Eq(x, y) for x, y in zip(xs, ys))]) if len(xs) == len(ys) else None
    if kind is Abs:
        a, b, s1, t1 = s.binder, t.binder, s.body, t.body
        if a is b:
            return "eq-abs", [(Eq(s1, t1),)]
        c1, new = gen.newness(t1)
        return "eq-abs-rename", [
            (Eq(s1, act(Permutation.swap(a, b), t1)), Fix(Permutation.swap(a, c1), t1), *_fixes(new))
        ]
    if kind is Susp:
        if s.var is not t.var:
            return None
        return "eq-var", [(Fix(t.perm.inverse().compose(s.perm), Susp(Permutation.identity(), s.var)),)]
    raise TypeError(f"not a term: {s!r}")


def _rule(c: Constraint, gen: NameGenerator, sig: Signature):
    return _fix_rule(c, gen, sig) if type(c) is Fix else _eq_rule(c, gen, sig)


def _instantiation(c: Constraint, rigid: frozenset):
    """The instantiation step c allows, if any: (rule, suspension, other
    side), where the suspension's variable is not rigid and does not occur
    on the other side, the left side tried first."""
    if type(c) is Eq:
        s, t = c.lhs, c.rhs
        if type(s) is Susp and s.var not in rigid and s.var not in t._vars:
            return "eq-inst1", s, t
        if type(t) is Susp and t.var not in rigid and t.var not in s._vars:
            return "eq-inst2", t, s
    return None


def _apply(st: _State, k: int, c: Constraint, rule: str, children: list):
    """Take the step rule on c, under key k: one (child state, step) pair
    per alternative, the earlier ones on copies of st, the last on st
    itself, advanced in place."""
    st.consume(k)
    out = []
    for i, cons in enumerate(children, 1 - len(children)):  # i is 0 on the last alternative
        child = st.copy() if i else st
        child.prepend(cons)
        out.append((child, tuple.__new__(SimplStep, (rule, c, cons, None))))
    return out


def expand(st: _State, gen: NameGenerator, sig: Signature, rigid: frozenset = frozenset()):
    """One simplification step: a rule that does not branch, else an
    instantiation, else a commutative split, each on the lowest key.  The
    first tier keeps a split's alternatives on its constraint, and the
    split tier takes them from there.

    Returns a list of (child state, step) pairs: empty for a normal form,
    one entry for deterministic rules, two for a split on one of sig's
    commutative symbols.  The last child is st itself, advanced in place;
    an earlier one is a copy.
    """
    while st.todo:
        k = heappop(st.todo)
        c = st.cons[k]
        got = None if c._tried == () else _rule(c, gen, sig)
        if got is None:
            _set_tried(c, ())
            if type(c) is Eq:
                heappush(st.inst, k)  # whether it instantiates is decided once, when popped
            continue
        if len(got[1]) > 1:
            _set_tried(c, got)  # every branch below takes these same children
            heappush(st.split, k)  # taken once no other step applies
            continue
        return _apply(st, k, c, *got)
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
        return [(st, tuple.__new__(SimplStep, (rule, c, (), (x, u))))]
    while st.split:
        k = heappop(st.split)
        c = st.cons.get(k)
        if c is not None and c._tried:  # every live one passed the first tier: stuck, or kept its split
            return _apply(st, k, c, *c._tried)
    return []


def classify_normal_form(pr: Problem, rigid: frozenset = frozenset()):
    """Return (kind, witness) for a failed normal form, or None on success."""
    for c in pr:
        if type(c) is Eq:
            s, t = c.lhs, c.rhs
            if type(s) is Susp and s.var in t._vars or type(t) is Susp and t.var in s._vars:
                return "occurs", c
            if type(s) is Susp and s.var in rigid or type(t) is Susp and t.var in rigid:
                return "rigid", c
            return "clash", c
        if type(c.target) is AtomTerm:
            return "fixpoint-inconsistency", c
        assert not c._weight, f"unexpected constraint in normal form: {c}"  # a Fix on a bare variable
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
    return Solution(FixpointContext(pairs), sigma)


def _search(pr: Problem, sig: Signature, gen: NameGenerator, rigid: frozenset):
    """Depth-first search of the derivations of pr, last child first, so
    the leaves, read in reverse, come in the tree's pre-order.

    Yields (normal form, path, failure, solution) for each leaf; path is
    the linked chain (step, parent path) back to the root, and failure is
    classify_normal_form's answer.  Each step's decrease of the measure is
    asserted from the step and the variable counts around it.
    The search builds a problem only at a leaf; the chains share their
    prefixes and together are the derivation tree, which nomfix.cunify
    reads on demand.
    """
    stack = [(_State(pr), None)]
    while stack:
        st, path = stack.pop()
        var_count = len(st.occ)
        children = expand(st, gen, sig, rigid)
        if not children:
            nf = st.problem()
            failure = classify_normal_form(nf, rigid)
            yield nf, path, failure, None if failure else extract_solution(nf, path)
        for child, step in children:
            assert _step_decreases(step, var_count, len(child.occ)), str(step)
            stack.append((child, (step, path)))


def _derive(pr, sig: Signature, gen: NameGenerator | None, theories, rigid=frozenset()):
    """Check that pr uses only symbols of the given theories, then search
    it: returns the leaves."""
    pr = tuple(pr)
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
    sig = sig or Signature(permissive=True)
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

    sol1's own variables, those of its terms and context not among the given
    ones, are first renamed apart, to names the parser cannot produce, so
    that none is read as sol2's variable of the same name.  The carrying
    substitution is searched for by matching; candidates are then verified
    directly with the checking engines.
    """
    sig = sig or Signature(permissive=True)
    variables = sorted(set(variables))
    ident = Permutation.identity()
    lhs = [sol1.subst(Susp(ident, x)) for x in variables]
    own = frozenset().union(*[t._vars for t in lhs], [y for _, y in sol1.context.constraints]) - set(variables)
    apart = {y: Var(f"#{y.name}") for y in own}
    rename = Substitution({y: Susp(ident, z) for y, z in apart.items()})
    lhs = [flatten(sig, rename(t)) for t in lhs]
    rhs = [flatten(sig, sol2.subst(Susp(ident, x))) for x in variables]
    fixes = [(p, apart.get(y, y)) for p, y in sol1.context.constraints]
    rigid = frozenset().union(*[t._vars for t in rhs])
    problem = tuple(Eq(s, t) for s, t in zip(lhs, rhs))
    gen = generator_avoiding(atoms_in(*problem, sol1.context, sol2.context))
    for _, _, _, cand in _search(problem, sig, gen, rigid):
        if (
            cand is not None
            and all(check_alpha_fixp(sig, sol2.context, cand.subst(s), t) for s, t in zip(lhs, rhs))
            and all(check_fixp(sig, sol2.context, p, cand.subst(Susp(ident, y))) for p, y in fixes)
        ):
            return True
    return False
