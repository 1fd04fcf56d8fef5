"""An independent checker of c_unify's derivation trees, read as
certificates.

check_tree(sig, pr, records) replays the records of a derivation tree (the
records `cunify --tree --json` prints, nomfix.cunify.tree_records) from
the input problem pr, and checks that

- each step's consumed constraint is in its parent's problem;
- each step makes problem_measure, computed from scratch, decrease;
- each leaf's problem is a normal form with that leaf's outcome;
- each successful leaf's solution is the one its bindings give, and it
  passes verify_solution.

The records are read back from their text with the parser and the steps
are replayed here, so the check does not trust the search's state or the
code that prints the records.  So the generated atoms in the records must
be ones the parser reads: solve names them with a plain prefix, as
`--fresh-prefix n` does.

c_unify searches each part of a problem that shares no variable with the
rest on its own, so the problems its search reaches are the parts'.
part_problems replays each part's own tree, read off the leaves a result
keeps, for the tests that compare them with what the search reached.
"""

from __future__ import annotations

from nomfix import (
    Abs,
    App,
    AtomTerm,
    Eq,
    Fix,
    FixpointContext,
    Solution,
    Substitution,
    Susp,
    Tup,
    Var,
    act,
    atoms_in,
    c_unify,
    free_vars,
    generator_avoiding,
    parse_constraint,
    parse_term,
    verify_solution,
)
from nomfix.cunify import tree_records
from nomfix.unify import problem_measure

def solve(sig, pr, **options):
    """c_unify on pr, its generated atoms named n0, n1, ..., which print
    as they parse."""
    return c_unify(pr, sig, gen=generator_avoiding(atoms_in(*pr), prefix="n"), **options)


def texts(pr) -> list[str]:
    return [str(c) for c in pr]


def search_order(records):
    """The record ids in the order the search reaches them: last child
    first."""
    kids = [[] for _ in records]
    for r in records[1:]:
        kids[r["parent"]].append(r["id"])
    stack = [0]
    while stack:
        i = stack.pop()
        yield i
        stack.extend(kids[i])


def part_problems(sig, pr, res) -> list[list[str]]:
    """The problems c_unify's search reached on pr, as texts, read off its
    result res: each part's own tree, made from the part's leaves that res
    keeps, replayed from the part and read in search order, the parts in
    turn.  It checks too that res.tree grafts each part's steps below every
    leaf of the parts before it."""
    problems, trees = [], []
    for indices, leaves in res.outcomes.parts:
        part = tuple(pr[i] for i in indices)
        trees.append(list(tree_records(part, [(indices, leaves)])))
        replayed = check_tree(sig, part, trees[-1])
        problems += [texts(replayed[i]) for i in search_order(trees[-1])]
    assert _steps(res.tree) == _grafted(trees), "the tree is not its parts' trees grafted"
    return problems


def _step(record) -> dict:
    return {k: record[k] for k in ("rule", "consumed", "produced", "binding") if k in record}


def _steps(records) -> list[dict]:
    return [_step(records[i]) for i in search_order(records) if records[i]["parent"] is not None]


def _grafted(trees, p=0) -> list[dict]:
    """The steps of the tree that grafts each of trees below every leaf of
    the ones before it, in search order."""
    out = []
    for i in search_order(trees[p]):
        r = trees[p][i]
        if r["parent"] is not None:
            out.append(_step(r))
        if "outcome" in r and p + 1 < len(trees):
            out += _grafted(trees, p + 1)
    return out


def check_tree(sig, pr, records) -> list[tuple]:
    """Check the tree records of pr as set out above, and return the problem
    replayed at each record, by id."""
    pr = tuple(pr)
    problems: list[tuple] = []
    bindings: list[list] = []  # per record, the bindings on its path, root first
    children: dict[int, list[dict]] = {}
    for i, r in enumerate(records):
        assert r["id"] == i, r
        if r["parent"] is None:
            assert i == 0 and r["rule"] is None, r
            assert [str(c) for c in pr] == r["problem"], r
            problems.append(pr)
            bindings.append([])
        else:
            assert 0 <= r["parent"] < i, r
            children.setdefault(r["parent"], []).append(r)
            before = problems[r["parent"]]
            after, binding = _replay(sig, before, r)
            assert problem_measure(after) < problem_measure(before), r
            problems.append(after)
            bindings.append(bindings[r["parent"]] + [binding] if binding else bindings[r["parent"]])
        if "outcome" in r:
            _check_leaf(sig, pr, problems[i], bindings[i], r)
    for parent, kids in children.items():
        assert "outcome" not in records[parent], records[parent]
        # a step consumes one constraint, branching at most in two
        assert len(kids) <= 2 and len({(k["rule"], k["consumed"]) for k in kids}) == 1, kids
    assert all("outcome" in r or r["id"] in children for r in records), "a record neither branches nor ends"
    return problems


def _replay(sig, before: tuple, r: dict):
    """The problem r's step leads to from before, and its binding or None:
    the first constraint equal to the consumed one removed, then the
    produced constraints put first, or the binding applied to the rest."""
    consumed = parse_constraint(r["consumed"], sig)
    assert consumed in before, r
    i = before.index(consumed)
    rest = before[:i] + before[i + 1 :]
    if "binding" not in r:
        return tuple(parse_constraint(c, sig) for c in r["produced"]) + rest, None
    x, t = Var(r["binding"]["var"]), parse_term(r["binding"]["term"], sig)
    # p.X =? u, either way round, binds X to p^-1.u when X is not in u
    sides = (consumed.lhs, consumed.rhs) if isinstance(consumed, Eq) else ()
    assert any(
        isinstance(s, Susp) and s.var == x and x not in free_vars(u) and act(s.perm.inverse(), u) == t
        for s, u in (sides, sides[::-1])
    ), r
    theta = Substitution({x: t})
    after = tuple(
        Eq(theta(c.lhs), theta(c.rhs)) if isinstance(c, Eq) else Fix(c.perm, theta(c.target)) for c in rest
    )
    return after, (x, t)


def _reducible(c) -> bool:
    """Whether a simplification rule, instantiation included, applies to c."""
    if isinstance(c, Fix):
        t = c.target
        if isinstance(t, AtomTerm):
            return c.perm(t.atom) == t.atom
        return not isinstance(t, Susp) or bool(t.perm.swappings)
    s, t = c.lhs, c.rhs
    for u, v in ((s, t), (t, s)):
        if isinstance(u, Susp) and u.var not in free_vars(v):
            return True
    match (s, t):
        case (AtomTerm(a), AtomTerm(b)):
            return a == b
        case (App(f, _), App(g, _)):
            return f == g
        case (Tup(xs), Tup(ys)):
            return len(xs) == len(ys)
        case (Abs(), Abs()):
            return True
        case (Susp(_, x), Susp(_, y)):
            return x == y
    return False


def _outcome(nf: tuple) -> str:
    """success, or the kind of nf's first constraint that is not a primitive
    fixed-point constraint."""
    for c in nf:
        if isinstance(c, Fix):
            if isinstance(c.target, AtomTerm):
                return "fixpoint-inconsistency"
            continue
        for u, v in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
            if isinstance(u, Susp) and u.var in free_vars(v):
                return "occurs"
        return "clash"
    return "success"


def _check_leaf(sig, pr: tuple, nf: tuple, bindings: list, r: dict) -> None:
    assert not any(map(_reducible, nf)), r
    assert r["outcome"] == _outcome(nf), r
    if r["outcome"] != "success":
        assert "solution" not in r, r
        return
    images: dict = {}
    for x, t in bindings:
        theta = Substitution({x: t})
        images = {y: theta(u) for y, u in images.items()}
        images[x] = t
    context = FixpointContext(frozenset((c.perm, c.target.var) for c in nf if c.perm.swappings))
    solution = Solution(context, Substitution(images))
    assert solution.key() == r["solution"], (solution.key(), r)
    assert verify_solution(sig, pr, solution), r
