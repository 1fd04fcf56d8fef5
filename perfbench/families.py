"""Seeded input generators for the nomfix benchmark.

Each generator takes a ``random.Random`` and returns ``Case`` objects: the
problem text handed to the CLI (or the terms handed to the API) together with
the answer expected by construction.  The same seed gives the same cases.

Terms are built from ``nomfix.syntax`` classes so that the checks can hand
them to the oracle and to ``verify_solution``; the text is rendered by this
module, not by ``nomfix.printer``, so that the printer under test does not
shape its own inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from nomfix.syntax import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    FreshnessContext,
    Permutation,
    Signature,
    Susp,
    Swapping,
    Term,
    Theory,
    Tup,
    Var,
)
from nomfix.oracle import ground_alpha_oracle
from nomfix.unify import Eq, Fix

NONE, C, AC = Theory.NONE, Theory.C, Theory.AC


@dataclass
class Case:
    """One benchmark request and the answer expected for it.

    ``expect`` holds what the checks compare against: ``exit`` (the CLI exit
    code), and per command ``derivable`` (one bool per goal), ``status``,
    ``kind`` (witness kind), ``solutions``/``leaves`` (c-unification counts),
    ``entries`` (translated context) or ``value`` (API result), and
    ``known_raise``, the exception a deep input is known to raise today.
    """

    slice: str
    size: int
    command: str  # CLI sub-command, or "api" for check_alpha_fresh
    expect: dict
    text: str = ""
    flags: tuple = ("--json",)
    sig: Signature = field(default_factory=lambda: Signature(permissive=True))
    goals: tuple = ()  # Eq / Fix / (atom, term) goals, as terms
    fresh_ctx: FreshnessContext | None = None
    fixp_ctx: FixpointContext | None = None
    ground: bool = False  # every goal is ground, so the oracle can decide it
    api_args: tuple = ()
    argv: list = field(default_factory=list)  # set once the problem file is written

    @property
    def label(self) -> str:
        return f"{self.slice}/{self.command}/{self.size}"


# ---------------------------------------------------------------- rendering


def render(t: Term) -> str:
    if isinstance(t, AtomTerm):
        return t.atom.name
    if isinstance(t, Susp):
        return (render_perm(t.perm) + "." if t.perm.swappings else "") + t.var.name
    if isinstance(t, Abs):
        return f"[{t.binder.name}] {render(t.body)}"
    if isinstance(t, Tup):
        return "(" + ", ".join(render(s) for s in t.items) + ")"
    if isinstance(t, App):
        items = t.arg.items if isinstance(t.arg, Tup) else (t.arg,)
        return t.symbol + "(" + ", ".join(render(s) for s in items) + ")"
    raise TypeError(f"not a term: {t!r}")


def render_perm(p: Permutation) -> str:
    if not p.swappings:
        return "Id"
    return "".join(f"({s.left.name} {s.right.name})" for s in p.swappings)


def render_goal(g) -> str:
    if isinstance(g, Eq):
        return f"{render(g.lhs)} =? {render(g.rhs)}"
    if isinstance(g, Fix):
        return f"{render_perm(g.perm)} fix? {render(g.target)}"
    a, t = g
    return f"{a.name} fresh? {render(t)}"


def problem_text(sig: Signature, goals, fresh_ctx=None, fixp_ctx=None) -> str:
    lines = [f"sym {f} : {th.value} ;" for f, th in sorted(sig.symbols.items())]
    if fresh_ctx is not None and fresh_ctx.constraints:
        entries = ", ".join(f"{a.name} fresh {x.name}" for a, x in sorted(fresh_ctx.constraints))
        lines.append(f"context: {entries} ;")
    if fixp_ctx is not None and fixp_ctx.constraints:
        entries = ", ".join(
            f"{render_perm(p)} fix {x.name}"
            for p, x in sorted(fixp_ctx.constraints, key=lambda c: (c[1], render_perm(c[0])))
        )
        lines.append(f"context: {entries} ;")
    lines.append(",\n".join(render_goal(g) for g in goals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------- small term utilities


def A(name: str) -> AtomTerm:
    return AtomTerm(Atom(name))


def V(name: str, perm: Permutation = Permutation()) -> Susp:
    return Susp(perm, Var(name))


def perm_map(p: Permutation) -> dict:
    """The permutation as an atom -> atom map, computed independently of
    nomfix's own permutation code."""
    atoms = {a for s in p.swappings for a in (s.left, s.right)}
    out = {}
    for a in atoms:
        b = a
        for s in reversed(p.swappings):
            b = s.right if b == s.left else s.left if b == s.right else b
        out[a] = b
    return out


def support(p: Permutation) -> set:
    return {a for a, b in perm_map(p).items() if a != b}


def permute(m: dict, t: Term) -> Term:
    """Apply an atom map to a ground term (binders included)."""
    if isinstance(t, AtomTerm):
        return AtomTerm(m.get(t.atom, t.atom))
    if isinstance(t, Abs):
        return Abs(m.get(t.binder, t.binder), permute(m, t.body))
    if isinstance(t, Tup):
        return Tup(tuple(permute(m, s) for s in t.items))
    if isinstance(t, App):
        return App(t.symbol, permute(m, t.arg))
    raise TypeError(f"not a ground term: {t!r}")


def atoms_in(t: Term) -> set:
    if isinstance(t, AtomTerm):
        return {t.atom}
    if isinstance(t, Abs):
        return {t.binder} | atoms_in(t.body)
    if isinstance(t, Tup):
        return set().union(*(atoms_in(s) for s in t.items))
    if isinstance(t, App):
        return atoms_in(t.arg)
    if isinstance(t, Susp):
        return {a for s in t.perm.swappings for a in (s.left, s.right)}
    raise TypeError(f"not a term: {t!r}")


def substitute(theta: dict, t: Term) -> Term:
    """Capturing substitution with suspended permutations, (pi.X)theta = pi.(X theta)."""
    if isinstance(t, Susp):
        if t.var in theta:
            return permute(perm_map(t.perm), theta[t.var])
        return t
    if isinstance(t, AtomTerm):
        return t
    if isinstance(t, Abs):
        return Abs(t.binder, substitute(theta, t.body))
    if isinstance(t, Tup):
        return Tup(tuple(substitute(theta, s) for s in t.items))
    return App(t.symbol, substitute(theta, t.arg))


def abstract(binders, body: Term) -> Term:
    for b in reversed(binders):
        body = Abs(Atom(b), body)
    return body


def nest(symbol: str, leaves, flips=None) -> Term:
    """Right-nested binary applications symbol(l0, symbol(l1, ...)); where
    flips[i] is true the pair at level i is written the other way round."""
    t = leaves[-1]
    for i in range(len(leaves) - 2, -1, -1):
        pair = (t, leaves[i]) if flips and flips[i] else (leaves[i], t)
        t = App(symbol, Tup(pair))
    return t


def _sig(**symbols) -> Signature:
    return Signature(dict(symbols))


def decide(sig: Signature, goal) -> bool:
    """The oracle's answer for a ground goal: s =? t directly, pi fix? t as
    pi.t =? t, and a fresh? t as (a c).t =? t for an atom c not in t."""
    if isinstance(goal, Eq):
        return ground_alpha_oracle(sig, goal.lhs, goal.rhs)
    if isinstance(goal, Fix):
        return ground_alpha_oracle(sig, permute(perm_map(goal.perm), goal.target), goal.target)
    a, t = goal
    c = Atom("zz" + "".join(sorted(x.name for x in atoms_in(t))))
    return ground_alpha_oracle(sig, permute({a: c, c: a}, t), t)


def _check_case(slice_, size, command, sig, goals, derivable, ground, flags=("--json",), **ctx):
    """A case for alpha/fresh/fixp; a derivable entry of None is decided by
    the oracle."""
    derivable = [decide(sig, g) if d is None else d for d, g in zip(derivable, goals)]
    return Case(
        slice_,
        size,
        command,
        {"exit": 0 if all(derivable) else 1, "derivable": list(derivable)},
        problem_text(sig, goals, ctx.get("fresh_ctx"), ctx.get("fixp_ctx")),
        flags,
        sig,
        tuple(goals),
        ctx.get("fresh_ctx"),
        ctx.get("fixp_ctx"),
        ground,
    )


def _api_case(slice_, size, sig, s, t, value):
    return Case(
        slice_, size, "api", {"value": value}, sig=sig, goals=(Eq(s, t),), ground=True,
        api_args=(sig, FreshnessContext(), s, t),
    )


# ------------------------------------------------------ check-scaling families
# Each family returns a derivable and an underivable pair at one size.


def renamed_binder(rng: random.Random, d: int):
    """[x1]...[xd](x_o1, ..., x_od, z) against the same term over other
    binders: every level needs a renaming and a fixed-point side check."""
    names = [f"a{i}" for i in range(2 * d)]
    rng.shuffle(names)
    xs, ys = names[:d], names[d:]
    order = list(range(d))
    rng.shuffle(order)
    s = abstract(xs, Tup(tuple(A(xs[i]) for i in order) + (A("z"),)))
    t = abstract(ys, Tup(tuple(A(ys[i]) for i in order) + (A("z"),)))
    i, j = rng.sample(range(d), 2)
    bad = abstract(ys, Tup(tuple(A(ys[order[j]] if k == i else ys[order[k]]) for k in range(d)) + (A("z"),)))
    return s, t, bad


def same_binder(rng: random.Random, d: int):
    """[a]...[a](leaves) against itself: no renaming, only descent."""
    pool = ["a", "b", "c", "e"]
    rng.shuffle(pool)
    binder = pool[0]
    leaves = [A(rng.choice(pool)) for _ in range(3)] + [A("z")]
    s = abstract([binder] * d, Tup(tuple(leaves)))
    i = rng.randrange(len(leaves) - 1)
    other = rng.choice([n for n in pool if n != leaves[i].atom.name])
    bad_leaves = list(leaves)
    bad_leaves[i] = A(other)
    return s, s, abstract([binder] * d, Tup(tuple(bad_leaves)))


def c_nest(rng: random.Random, n: int):
    """n leaves under right-nested + (commutative), against a copy written
    the other way round at half of the levels (chosen by the seed).  The
    underivable copy changes the innermost leaf, so that every level is
    descended before the mismatch shows: the work does not depend on the seed."""
    pool = [f"c{i}" for i in range(6)]
    leaves = [A(rng.choice(pool)) for _ in range(n)]
    flips = [i < (n - 1) // 2 for i in range(n - 1)]
    rng.shuffle(flips)
    s = nest("+", leaves)
    t = nest("+", leaves, flips)
    bad = nest("+", leaves[:-1] + [A("w")], flips)
    return s, t, bad


def ac_nest(rng: random.Random, n: int):
    """n distinct leaves under * (AC), right-nested against a left-nested
    shuffle of the same leaves.  The underivable copy replaces the leaf that
    the matching reaches last."""
    leaves = [A(f"c{i}") for i in range(n)]
    rng.shuffle(leaves)
    s = nest("*", leaves)
    shuffled = list(leaves)
    rng.shuffle(shuffled)
    t = nest("*", shuffled, [True] * (n - 1))
    bad = nest("*", [A("w") if x == leaves[-1] else x for x in shuffled], [True] * (n - 1))
    return s, t, bad


def susp_perm(rng: random.Random, n: int, derivable: bool) -> tuple:
    """pi fix? q.X with q a random list of n swappings and pi = q rho q^-1:
    derivable exactly when rho's support lies in the support fixed for X."""
    pool = [Atom(f"p{i}") for i in range(10)]
    q = Permutation(tuple(Swapping(*rng.sample(pool, 2)) for _ in range(n)))
    c0, c1 = pool[0], pool[1]
    rho = Swapping(c0, c1) if derivable else Swapping(c0, rng.choice(pool[2:]))
    pi = Permutation(q.swappings + (rho,) + tuple(reversed(q.swappings)))
    ctx = FixpointContext(frozenset({(Permutation((Swapping(c0, c1),)), Var("X"))}))
    # independent check of the construction: q^-1 pi q moves only rho's atoms
    maps = (perm_map(q), perm_map(pi), perm_map(Permutation(tuple(reversed(q.swappings)))))
    moved = set()
    for a in pool:
        b = a
        for m in maps:
            b = m.get(b, b)
        if b != a:
            moved.add(a)
    if (moved <= {c0, c1}) != derivable:
        raise AssertionError("susp-perm construction is wrong")
    return Fix(pi, V("X", q)), ctx


SCALING_FAMILIES = {
    "renamed-binder": renamed_binder,
    "same-binder": same_binder,
    "c-nest": c_nest,
    "ac-nest": ac_nest,
}
SCALING_SIGS = {"c-nest": {"+": C}, "ac-nest": {"*": AC}}


def scaling_cases(rng: random.Random, ladders: dict) -> list[Case]:
    """check-scaling: alpha (CLI) and check_alpha_fresh (API) on each pair,
    fresh (CLI) on the binder families, fixp (CLI) on suspensions."""
    cases = []
    for family, sizes in ladders.items():
        for n in sizes:
            if family == "susp-perm":
                for ok in (True, False):
                    goal, ctx = susp_perm(rng, n, ok)
                    cases.append(_check_case(family, n, "fixp", Signature(), [goal], [ok], False, fixp_ctx=ctx))
                continue
            sig = _sig(**SCALING_SIGS.get(family, {}))
            s, t, bad = SCALING_FAMILIES[family](rng, n)
            for rhs, ok in ((t, True), (bad, False)):
                cases.append(_check_case(family, n, "alpha", sig, [Eq(s, rhs)], [ok], True))
                cases.append(_api_case(family, n, sig, s, rhs, ok))
            if family in ("renamed-binder", "same-binder"):
                # y occurs nowhere, so the whole term is walked; z is free
                for a, ok in ((Atom("y"), True), (Atom("z"), False)):
                    cases.append(_check_case(family, n, "fresh", sig, [(a, bad)], [ok], True))
    return cases


# ------------------------------------------------------- unify-chain families

UNIFY_OUTCOMES = ("solved", "clash", "occurs", "fixpoint-inconsistency")


def _chain_tail(n: int, outcome: str, atoms) -> list:
    """Constraints on the last variable that make the chain end in outcome.
    The chain itself uses atoms[0] and atoms[1]; clashes use the other two,
    so that no newness constraint on the chain's binders interferes."""
    a, _, c, d = atoms
    last = V(f"X{n}")
    if outcome == "clash":
        return [Eq(last, A(c)), Eq(last, A(d))]
    if outcome == "occurs":
        return [Eq(last, App("f", Tup((V("X0"), A(a)))))]
    if outcome == "fixpoint-inconsistency":
        return [Fix(Permutation((Swapping(Atom(c), Atom(d)),)), last), Eq(last, A(c))]
    return []


def plain_chain(rng: random.Random, n: int, outcome: str) -> Case:
    """X0 =? f(X1, a), ..., X(n-1) =? f(Xn, a), plus a tail forcing the outcome."""
    atoms = rng.sample(["a", "b", "c", "d", "e"], 4)
    goals = [Eq(V(f"X{i}"), App("f", Tup((V(f"X{i + 1}"), A(atoms[0]))))) for i in range(n)]
    return _unify_case("plain-chain", n, goals + _chain_tail(n, outcome, atoms), outcome, _sig(f=NONE))


def abs_chain(rng: random.Random, n: int, outcome: str) -> Case:
    """[a] X0 =? [b] f(X1), ...: every equation renames a binder and adds
    newness constraints for every variable in scope."""
    atoms = rng.sample(["a", "b", "c", "d", "e"], 4)
    a, b = Atom(atoms[0]), Atom(atoms[1])
    goals = [Eq(Abs(a, V(f"X{i}")), Abs(b, App("f", V(f"X{i + 1}")))) for i in range(n)]
    return _unify_case("abs-chain", n, goals + _chain_tail(n, outcome, atoms), outcome, _sig(f=NONE))


def _unify_case(slice_, n, goals, outcome, sig, flags=("--json",)) -> Case:
    expect = {"exit": 0, "status": "solved"} if outcome == "solved" else {
        "exit": 1, "status": "unsolvable", "kind": outcome}
    return Case(slice_, n, "unify", expect, problem_text(sig, goals), flags, sig, tuple(goals))


# ----------------------------------------------------- cunify-branch family
# Pair kinds: "two" has two solutions, "one" has one (the other branch
# clashes), "dup" has two equal solutions that --dedup merges.

PAIR_KINDS = ("two", "one", "dup")


def c_pairs(rng: random.Random, k: int, flags=("--json",), slice_="c-pairs") -> Case:
    """k pairs, the kinds in a fixed rotation and the names chosen by the
    seed.  The order of the kinds changes the work by up to 45% at k = 5
    (a one-solution pair early prunes the other branch sooner), so it is
    the same for every seed."""
    goals = []
    kinds = [PAIR_KINDS[i % 3] for i in range(k)]
    tags = rng.sample(range(100), k)
    for tag, kind in zip(tags, kinds):
        a, b = A(f"a{tag}"), A(f"b{tag}")
        x, y = V(f"X{tag}"), V(f"Y{tag}")
        if kind == "two":
            goals.append(Eq(App("+", Tup((x, y))), App("+", Tup((a, b)))))
        elif kind == "one":
            goals.append(Eq(App("+", Tup((x, a))), App("+", Tup((b, a)))))
        else:
            goals.append(Eq(App("+", Tup((x, x))), App("+", Tup((a, a)))))
    two, dup = kinds.count("two"), kinds.count("dup")
    solutions = 2 ** two if "--dedup" in flags else 2 ** (two + dup)
    sig = _sig(**{"+": C})
    expect = {"exit": 0, "status": "solved", "solutions": solutions, "leaves": 2 ** k}
    return Case(slice_, k, "cunify", expect, problem_text(sig, goals), flags, sig, tuple(goals))


# ---------------------------------------------------- cli-corpus: small cases

SMALL_SIG = _sig(f=NONE, cat=Theory.A, **{"+": C, "*": AC})
SMALL_ATOMS = ("a", "b", "c", "d", "e")


def random_term(rng: random.Random, sig: Signature, depth: int, variables=(), atoms=SMALL_ATOMS) -> Term:
    kinds = ["atom"] + (["var"] if variables else [])
    if depth > 0:
        kinds += ["abs", "tup", "app", "abs", "app"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return A(rng.choice(atoms))
    if kind == "var":
        swaps = tuple(Swapping(*(Atom(n) for n in rng.sample(atoms, 2))) for _ in range(rng.randrange(3)))
        return V(rng.choice(variables), Permutation(swaps))
    sub = lambda: random_term(rng, sig, depth - 1, variables, atoms)  # noqa: E731
    if kind == "abs":
        return Abs(Atom(rng.choice(atoms)), sub())
    if kind == "tup":
        return Tup(tuple(sub() for _ in range(rng.choice((2, 2, 3)))))
    f = rng.choice(sorted(sig.symbols))
    if sig.symbols[f] is NONE:
        return App(f, sub())
    return App(f, Tup((sub(), sub())))


def variant(rng: random.Random, sig: Signature, t: Term) -> Term:
    """An alpha/C-equivalent copy of a ground term: some binders renamed to
    unused atoms and some commutative pairs swapped."""
    if isinstance(t, Abs):
        body = variant(rng, sig, t.body)
        if rng.random() < 0.5:
            new = Atom(f"r{rng.randrange(1000)}")
            if new not in atoms_in(body):
                return Abs(new, permute({t.binder: new, new: t.binder}, body))
        return Abs(t.binder, body)
    if isinstance(t, Tup):
        return Tup(tuple(variant(rng, sig, s) for s in t.items))
    if isinstance(t, App):
        arg = variant(rng, sig, t.arg)
        if sig.symbols.get(t.symbol) in (C, AC) and rng.random() < 0.5:
            arg = Tup(tuple(reversed(arg.items)))
        return App(t.symbol, arg)
    return t


def small_cases(rng: random.Random, count: int) -> list[Case]:
    """Seeded small problems for every command, depth <= 3, mostly --json,
    with a share in text mode and a share with --trace."""
    makers = (_small_alpha, _small_fresh, _small_fixp, _small_unify, _small_cunify, _small_translate)
    cases = []
    for i in range(count):
        maker = makers[i % len(makers)]
        roll = rng.random()
        flags = ("--json",) if roll < 0.6 else () if roll < 0.8 else ("--json", "--trace") if roll < 0.9 else ("--trace",)
        cases.append(maker(rng, flags))
    return cases


def _small_alpha(rng, flags):
    s = random_term(rng, SMALL_SIG, 3)
    t = variant(rng, SMALL_SIG, s) if rng.random() < 0.5 else random_term(rng, SMALL_SIG, 3)
    return _check_case("small", 3, "alpha", SMALL_SIG, [Eq(s, t)], [None], True, flags)


def _small_fresh(rng, flags):
    t = random_term(rng, SMALL_SIG, 3)
    return _check_case("small", 3, "fresh", SMALL_SIG, [(Atom(rng.choice(SMALL_ATOMS)), t)], [None], True, flags)


def _small_fixp(rng, flags):
    t = random_term(rng, SMALL_SIG, 3)
    p = Permutation(tuple(Swapping(*(Atom(n) for n in rng.sample(SMALL_ATOMS, 2))) for _ in range(rng.randrange(1, 3))))
    return _check_case("small", 3, "fixp", SMALL_SIG, [Fix(p, t)], [None], True, flags)


def _instance(rng, sig, s: Term, commute: bool) -> Term:
    variables = sorted({x for x in _vars(s)})
    theta = {Var(x): random_term(rng, sig, 1) for x in variables}
    t = substitute(theta, s)
    return variant(rng, sig, t) if commute else t


def _vars(t: Term) -> set:
    if isinstance(t, Susp):
        return {t.var.name}
    if isinstance(t, Abs):
        return _vars(t.body)
    if isinstance(t, Tup):
        return set().union(*(_vars(s) for s in t.items))
    if isinstance(t, App):
        return _vars(t.arg)
    return set()


def _small_unify(rng, flags):
    sig = _sig(f=NONE, g=NONE)
    s = random_term(rng, sig, 2, ("X", "Y"))
    t = _instance(rng, sig, s, False)
    if rng.random() < 0.5:
        return _unify_case("small", 3, [Eq(s, t)], "solved", sig, flags)
    goals = [Eq(Tup((s, A("a"))), Tup((t, A("b"))))]
    return _unify_case("small", 3, goals, "clash", sig, flags)


def _small_cunify(rng, flags):
    sig = _sig(f=NONE, **{"+": C})
    s = random_term(rng, sig, 2, ("X", "Y"))
    t = _instance(rng, sig, s, True)
    expect = {"exit": 0, "status": "solved"}
    return Case("small", 3, "cunify", expect, problem_text(sig, [Eq(s, t)]), flags, sig, (Eq(s, t),))


def _small_translate(rng, flags):
    pairs = set()
    if rng.random() < 0.5:
        for _ in range(rng.randrange(1, 4)):
            pairs.add((Atom(rng.choice(SMALL_ATOMS)), Var(rng.choice("XYZ"))))
        ctx = FreshnessContext(frozenset(pairs))
        entries = sorted((a.name, x.name) for a, x in pairs)
        expect = {"exit": 0, "kind": "fixpoint", "entries": entries}
        text = problem_text(Signature(), [], fresh_ctx=ctx).rstrip() + "\n"
        return Case("small", 3, "translate", expect, text, flags, fresh_ctx=ctx)
    for _ in range(rng.randrange(1, 3)):
        p = Permutation(tuple(Swapping(*(Atom(n) for n in rng.sample(SMALL_ATOMS, 2))) for _ in range(rng.randrange(1, 3))))
        pairs.add((p, Var(rng.choice("XYZ"))))
    ctx = FixpointContext(frozenset(pairs))
    entries = sorted({(a.name, x.name) for p, x in pairs for a in support(p)})
    expect = {"exit": 0, "kind": "freshness", "entries": entries}
    text = problem_text(Signature(), [], fixp_ctx=ctx).rstrip() + "\n"
    return Case("small", 3, "translate", expect, text, flags, fixp_ctx=ctx)


# ------------------------------------------------ cli-corpus: fixed slices

# The problem corpus shipped with the benchmark and the exit code each
# command must give on it: a copy of tests/data and of the table in
# tests/test_cli.py, so that a change to the tests leaves these inputs as
# they are.
CORPUS = {
    ("unify", "unify_abs.nom"): 0,
    ("unify", "unify_clash.nom"): 1,
    ("unify", "unify_occurs.nom"): 1,
    ("unify", "bad_syntax.nom"): 2,
    ("cunify", "cunify_two_mgu.nom"): 0,
    ("cunify", "cunify_fix_var.nom"): 0,
    ("alpha", "alpha_forall.nom"): 0,
    ("fixp", "fixp_xor_c.nom"): 1,
    ("fixp", "fixp_xor_ac.nom"): 0,
    ("fixp", "fixp_conj_var.nom"): 0,
    ("fresh", "fresh_susp.nom"): 0,
    ("translate", "translate_fresh.nom"): 0,
    ("translate", "translate_fixp.nom"): 0,
}


def corpus_cases(corpus_dir) -> list[Case]:
    cases = []
    for (command, name), code in sorted(CORPUS.items()):
        text = (corpus_dir / name).read_text()
        cases.append(Case("corpus", 0, command, {"exit": code}, text, ("--json",)))
    return cases


# Deep nesting: "app" is f(f(...a...)), "abs" is [a][a]...a; each is checked
# against itself, so the answer is derivable at every depth.  The third field
# names the exception the input raises today (ROADMAP item 5a); that request
# counts as failed, and any other exception makes the run incorrect.
DEEP = (("abs", 300, None), ("app", 600, "RecursionError"), ("app", 1500, "RecursionError"),
        ("abs", 1500, "RecursionError"))


def deep_cases(rng: random.Random) -> list[Case]:
    cases = []
    for kind, depth, raises in DEEP:
        a = rng.choice(SMALL_ATOMS)
        t = ("f(" * depth + a + ")" * depth) if kind == "app" else (f"[{a}] " * depth + a)
        expect = {"exit": 0, "derivable": [True], "known_raise": raises}
        cases.append(Case(f"deep-{kind}", depth, "alpha", expect, f"{t} =? {t}\n", ("--json",)))
    return cases
