"""AC arguments decided in one greedy pass: each argument keeps the first
remaining partner of its shape it matches.  The backtracking matcher it
replaced is kept here as the reference, and both engines must give its
verdicts, and on a derivable goal its very trace, on AC argument lists with
repeated partners.  The greedy pass that tried every remaining partner is
kept too, and trying only partners of one shape must give its verdicts."""

import functools
import random
import sys
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from nomfix import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    FreshnessContext,
    Signature,
    Theory,
    Tup,
    act,
    check_alpha_fixp,
    check_alpha_fresh,
    ground_alpha_oracle,
)
from gen import ATOMS, SIG_FULL, random_fixp_context, random_fresh_context, random_perm, random_term, rename_binders

ALPHA = sys.modules["nomfix.alpha"]
# the symbols of SIG_FULL but the AC one, so that flattening a goal never
# adds to its arguments, and the reference's n! pairings stay few
POOL_SIG = Signature({"f": Theory.NONE, "cat": Theory.A, "+": Theory.C})


def backtracking_ac(rules, sig, ctx, gen, f, ss, ts, rho, node, bound, retries: list):
    """The reference: pick a partner of the head's shape, match the rest
    ("f remainder") and, when the rest fails, try the head's next partner,
    appending f to retries."""
    if len(ss) != len(ts):
        return False
    if len(ss) == 1:
        last = node.child("", rho, ss[0], "=?", ts[0])
        return (yield ALPHA.alpha(rules, sig, ctx, gen, ss[0], ts[0], rho, last, bound))
    head = ss[0]
    for i, cand in enumerate(ts):
        if ALPHA._shape(cand, rho.image) != ALPHA._shape(head, {}):
            continue
        if (yield ALPHA.alpha(rules, sig, ctx, gen, head, cand, rho, node.child("", rho, head, "=?", cand), bound)):
            rest = node.child(f"rest-{i}", None, f, "remainder")
            others = ts[:i] + ts[i + 1 :]
            if (yield from backtracking_ac(rules, sig, ctx, gen, f, ss[1:], others, rho, rest, bound, retries)):
                rest.ok = True
                return True
            retries.append(f)
    return False


def unfiltered_ac(rules, sig, ctx, gen, f, ss, ts, rho, node, bound):
    """The greedy pass as it was, trying every remaining partner."""
    ts, rests = list(ts), []
    for s in ss:
        for i, t in enumerate(ts):
            if (yield ALPHA.alpha(rules, sig, ctx, gen, s, t, rho, node.child("", rho, s, "=?", t), bound)):
                break
        else:
            return False
        del ts[i]
        if ts:
            node = node.child(f"rest-{i}", None, f, "remainder")
            rests.append(node)
    for rest in rests:
        rest.ok = True
    return True


def ac_goal(rng: random.Random, ground: bool):
    """*(s1, ..., sn) =? *(t1, ..., tn), the si drawn from a pool of two or
    three small terms, so that partners repeat, and the ti a shuffle of the
    si with binders renamed; sometimes one ti is redrawn from the pool, the
    right side is moved by a permutation, or both sides go under a binder."""
    pool = [random_term(rng, POOL_SIG, depth=2, ground=ground) for _ in range(rng.randint(2, 3))]
    left = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
    right = [rename_binders(rng, u) for u in left]
    rng.shuffle(right)
    if rng.random() < 0.3:
        right[rng.randrange(len(right))] = rng.choice(pool)
    s, t = App("*", Tup(tuple(left))), App("*", Tup(tuple(right)))
    if rng.random() < 0.2:
        t = act(random_perm(rng), t)
    if rng.random() < 0.3:
        x = rng.choice(ATOMS)
        s, t = Abs(x, s), rename_binders(rng, Abs(x, t))
    return s, t


def decide(s, t, fresh_ctx, fixp_ctx) -> list:
    """Each engine's verdict and trace records."""
    out = []
    for check, ctx in ((check_alpha_fresh, fresh_ctx), (check_alpha_fixp, fixp_ctx)):
        trace = []
        out.append((check(SIG_FULL, ctx, s, t, trace=trace), [node.record() for node in trace]))
    return out


def backtracking(retries: list):
    """alpha with the reference in place of the greedy matcher."""
    return mock.patch.object(ALPHA, "_ac", functools.partial(backtracking_ac, retries=retries))


# no deadline: the backtracking reference, not the greedy engine, takes
# the time on some seeds.  On seed 320184 (not ground) the whole example
# took 190-300 ms under python -X dev, 5-9 ms of it greedy, against
# Hypothesis's 200 ms default (Python 3.11.7, 2-vCPU VM).
@settings(deadline=None)
@example(320184, False)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_greedy_agrees_with_backtracking(seed, ground):
    rng = random.Random(seed)
    s, t = ac_goal(rng, ground)
    fresh_ctx, fixp_ctx = random_fresh_context(rng), random_fixp_context(rng)
    greedy = decide(s, t, fresh_ctx, fixp_ctx)
    with backtracking([]):
        reference = decide(s, t, fresh_ctx, fixp_ctx)
    for (ok, trace), (want, want_trace) in zip(greedy, reference):
        assert ok == want
        if ok:
            # a derivable goal never needs a partner given back
            assert trace == want_trace
    if ground:
        assert [ok for ok, _ in greedy] == [ground_alpha_oracle(SIG_FULL, s, t)] * 2


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_partners_of_one_shape_give_the_verdicts_of_all(seed, ground):
    """On AC goals with repeated partners, and on goals over A, C and AC
    symbols whose right side is the left with binders renamed, maybe moved
    or redrawn, trying only partners of the argument's shape decides as
    trying all of them did.  It only drops the attempts on partners of
    another shape, so, without generated atoms to rename, its freshness
    trace is what remains of the other's."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        s, t = ac_goal(rng, ground)
    else:
        s = random_term(rng, SIG_FULL, depth=4, ground=ground)
        t = rename_binders(rng, s) if rng.random() < 0.7 else random_term(rng, SIG_FULL, depth=4, ground=ground)
        if rng.random() < 0.3:
            t = act(random_perm(rng), t)
    fresh_ctx, fixp_ctx = random_fresh_context(rng), random_fixp_context(rng)
    filtered = decide(s, t, fresh_ctx, fixp_ctx)
    with mock.patch.object(ALPHA, "_ac", unfiltered_ac):
        unfiltered = decide(s, t, fresh_ctx, fixp_ctx)
    assert [ok for ok, _ in filtered] == [ok for ok, _ in unfiltered]
    judgements = iter([(r["rule"], r["goal"], r["ok"]) for r in unfiltered[0][1]])
    assert all((r["rule"], r["goal"], r["ok"]) in judgements for r in filtered[0][1])


def test_goals_repeat_partners_and_make_the_reference_retry():
    """The goals of the property above are both derivable and not, and on
    many the reference gives a partner back and tries another."""
    rng, derivable, retried = random.Random(7), 0, 0
    for _ in range(300):
        s, t = ac_goal(rng, False)
        fresh_ctx, fixp_ctx = random_fresh_context(rng), random_fixp_context(rng)
        retries = []
        with backtracking(retries):
            derivable += check_alpha_fresh(SIG_FULL, fresh_ctx, s, t)
            check_alpha_fixp(SIG_FULL, fixp_ctx, s, t)
        retried += bool(retries)
    assert 60 < derivable < 240
    assert retried > 20


def lookalike(n: int):
    """*(f(a) x n, f(b)) =? *(f(a) x n, f(c)): no matching exists, and the
    backtracking matcher tries all n! pairings of the f(a)s to find out."""
    ga = App("f", AtomTerm(Atom("a")))
    s = App("*", Tup((ga,) * n + (App("f", AtomTerm(Atom("b"))),)))
    t = App("*", Tup((ga,) * n + (App("f", AtomTerm(Atom("c"))),)))
    return s, t


class BoundedTrace(list):
    """A trace that raises once it would hold more than limit records, so
    that a factorial derivation stops early instead of running on."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def append(self, node):
        assert len(self) < self.limit, f"more than {self.limit} trace records"
        super().append(node)


def test_lookalike_failure_makes_few_records():
    s, t = lookalike(9)
    for check, ctx in ((check_alpha_fresh, FreshnessContext()), (check_alpha_fixp, FixpointContext())):
        trace = BoundedTrace(200)
        assert check(SIG_FULL, ctx, s, t, trace=trace) is False
        # each f(a) takes the first f(a) left, then f(b) finds no partner
        assert sum(node.rule.startswith("rest-") for node in trace) == 9


def test_two_thousand_shuffled_arguments_try_one_partner_each():
    """*(a0, ..., a1999) against a shuffle of it: each argument tries only
    the partner of its own atom, so the trace holds one attempt and one
    "rest-i" per argument, not the n^2 / 2 attempts of trying every one."""
    args = [AtomTerm(Atom(f"a{i}")) for i in range(2000)]
    shuffled = args[:]
    random.Random(2000).shuffle(shuffled)
    s, t = App("*", Tup(tuple(args))), App("*", Tup(tuple(shuffled)))
    u = App("*", Tup((*shuffled[:-1], AtomTerm(Atom("b")))))
    for check, ctx in ((check_alpha_fresh, FreshnessContext()), (check_alpha_fixp, FixpointContext())):
        trace = BoundedTrace(4000)
        assert check(SIG_FULL, ctx, s, t, trace=trace) is True
        assert len(trace) == 1 + 2000 + 1999
        assert check(SIG_FULL, ctx, s, u, trace=BoundedTrace(4000)) is False


def test_five_thousand_arguments_answer():
    # *(a0, ..., a4999) against itself built afresh, and against a copy
    # whose last argument is b
    args = [AtomTerm(Atom(f"a{i}")) for i in range(5000)]
    s, t = App("*", Tup(tuple(args))), App("*", Tup(tuple(AtomTerm(Atom(f"a{i}")) for i in range(5000))))
    u = App("*", Tup((*args[:-1], AtomTerm(Atom("b")))))
    for check, ctx in ((check_alpha_fresh, FreshnessContext()), (check_alpha_fixp, FixpointContext())):
        assert check(SIG_FULL, ctx, s, t) is True
        assert check(SIG_FULL, ctx, s, u) is False
