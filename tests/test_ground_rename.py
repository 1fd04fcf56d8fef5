"""The derived abs-rename side condition on ground bodies: [a] s ~ [b] t
needs (a c1) fix t, or a # t, and on a ground t both hold exactly when a is
not a free atom of t.  Both engines decide it with one lookup in the memoised
free_atoms (rules fix-ground and #ground), modulo A, C and AC alike."""

import random

import pytest
from hypothesis import given, strategies as st

from nomfix import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    FreshnessContext,
    IllFormedTermError,
    Permutation,
    Tup,
    Var,
    act,
    check_alpha_fixp,
    check_alpha_fresh,
    free_atoms,
    ground_alpha_oracle,
    parse_term,
)
from gen import ATOMS, SIG_AC, SIG_C, SIG_FULL, random_perm, random_term, rename_binders

SIGS = {"C": SIG_C, "AC": SIG_AC, "full": SIG_FULL}
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reference_free_atoms(t, bound=frozenset()) -> set:
    """The free atoms of a ground term, folded afresh by recursion."""
    if isinstance(t, AtomTerm):
        return set() if t.atom in bound else {t.atom}
    if isinstance(t, Abs):
        return reference_free_atoms(t.body, bound | {t.binder})
    if isinstance(t, App):
        return reference_free_atoms(t.arg, bound)
    return set().union(*(reference_free_atoms(s, bound) for s in t.items))


def subterms(t):
    yield t
    for child in (t.body,) if isinstance(t, Abs) else (t.arg,) if isinstance(t, App) else getattr(t, "items", ()):
        yield from subterms(child)


class TestFreeAtoms:
    @given(seeds, st.sampled_from(sorted(SIGS)))
    def test_matches_a_recursive_fold(self, seed, theory):
        rng = random.Random(seed)
        t = rename_binders(rng, random_term(rng, SIGS[theory], depth=5, ground=True))
        got = free_atoms(t)
        assert isinstance(got, frozenset) and got == reference_free_atoms(t)
        for u in subterms(t):
            assert free_atoms(u) == reference_free_atoms(u)

    @given(seeds, st.sampled_from(sorted(SIGS)))
    def test_act_renames_free_atoms(self, seed, theory):
        # act copies size and variables but not free atoms, which a permutation changes
        rng = random.Random(seed)
        t = random_term(rng, SIGS[theory], depth=4, ground=True)
        p = random_perm(rng)
        fa = free_atoms(t)
        moved = act(p, t)
        assert free_atoms(moved) == {p(x) for x in fa}
        assert free_atoms(act(p.inverse(), moved)) == fa

    def test_shares_a_child_set_when_nothing_is_removed(self):
        body = parse_term("(a, f(b), [c] c)")
        fa = free_atoms(body)
        assert fa == {Atom("a"), Atom("b")}
        assert free_atoms(App("g", body)) is fa
        assert free_atoms(Abs(Atom("c"), body)) is fa
        assert free_atoms(Tup((body, AtomTerm(Atom("a"))))) is fa
        assert free_atoms(Abs(Atom("a"), body)) == {Atom("b")}

    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda t: App("f", t), {"a"}),
            (lambda t: Abs(Atom("a"), t), set()),
            (lambda t: Tup((t, AtomTerm(Atom("d")))), {"a", "d"}),
        ],
        ids=["application", "abstraction", "tuple"],
    )
    def test_any_depth(self, build, expected):
        """5,000 levels, past Python's recursion limit: the fill keeps its own stack."""
        t = AtomTerm(Atom("a"))
        for _ in range(5000):
            t = build(t)
        assert free_atoms(t) == {Atom(n) for n in expected}

    def test_a_suspension_is_rejected(self):
        with pytest.raises(IllFormedTermError, match="variable"):
            free_atoms(parse_term("[a] (a, (a b).X)"))


@given(seeds, st.sampled_from(sorted(SIGS)))
def test_engines_agree_with_the_oracle_on_renamed_binders(seed, theory):
    # a ground term against two copies with binders renamed, some renamings
    # capturing a free atom, so both verdicts and failing side conditions occur
    rng = random.Random(seed)
    sig = SIGS[theory]
    t = random_term(rng, sig, depth=5, ground=True)
    for _ in range(rng.randrange(3)):
        t = Abs(rng.choice(ATOMS), t)
    s, u = rename_binders(rng, t), rename_binders(rng, t)
    if rng.random() < 0.3:
        u = act(random_perm(rng), u)
    want = ground_alpha_oracle(sig, s, u)
    for trace in (None, []):
        assert check_alpha_fixp(sig, FixpointContext(), s, u, trace=trace) == want
        assert check_alpha_fresh(sig, FreshnessContext(), s, u, trace=trace) == want


def test_the_derived_rules_fire_on_both_verdicts(rng):
    """Over seeded renamed-binder pairs, fix-ground and #ground are recorded
    and hold and fail, so the property above exercises both outcomes."""
    seen = set()
    for _ in range(300):
        t = Abs(rng.choice(ATOMS), random_term(rng, SIG_FULL, depth=4, ground=True))
        s, u = rename_binders(rng, t), rename_binders(rng, t)
        fixp, fresh = [], []
        check_alpha_fixp(SIG_FULL, FixpointContext(), s, u, trace=fixp)
        check_alpha_fresh(SIG_FULL, FreshnessContext(), s, u, trace=fresh)
        seen |= {(n.rule, n.ok) for n in fixp + fresh if n.rule in ("fix-ground", "#ground")}
    assert seen == {(rule, ok) for rule in ("fix-ground", "#ground") for ok in (True, False)}


def test_non_ground_bodies_keep_the_full_side_condition():
    a, b, x = Atom("a"), Atom("b"), Var("X")
    s, t = parse_term("[a] (a, X)"), parse_term("[b] (b, X)")
    fixp, fresh = [], []
    check_alpha_fixp(SIG_FULL, FixpointContext(frozenset({(Permutation.swap(a, b), x)})), s, t, trace=fixp)
    check_alpha_fresh(SIG_FULL, FreshnessContext(frozenset({(a, x), (b, x)})), s, t, trace=fresh)
    assert [n.rule for n in fixp] == [
        "eq-abs-rename", "eq-tuple", "eq-atom", "eq-var", "fix-tuple", "fix-atom", "fix-var"]
    assert [n.rule for n in fresh] == ["~abs-rename", "~tuple", "~atom", "~var", "#tuple", "#atom", "#var"]
    assert all(n.ok for n in fixp + fresh)


def renamed_binder(d: int, prefix: str):
    """[p1]...[pd](p1, ..., pd, z): over prefixes x and y, every level renames."""
    xs = [Atom(f"{prefix}{i}") for i in range(1, d + 1)]
    t = Tup(tuple(map(AtomTerm, xs)) + (AtomTerm(Atom("z")),))
    for x in reversed(xs):
        t = Abs(x, t)
    return t


@pytest.mark.parametrize("check", ["fixp", "fresh"])
def test_trace_grows_linearly_with_depth(check):
    """A structural count, not a timing: d abs-rename steps, the first at
    the root, d side conditions of one record each, the tuple and its d + 1
    atoms.  Each side condition was a subtree of the body's size before."""
    counts = {}
    for d in (50, 100):
        trace = []
        s, t = renamed_binder(d, "x"), renamed_binder(d, "y")
        if check == "fixp":
            assert check_alpha_fixp(SIG_FULL, FixpointContext(), s, t, trace=trace)
        else:
            assert check_alpha_fresh(SIG_FULL, FreshnessContext(), s, t, trace=trace)
        counts[d] = len(trace)
    assert counts == {50: 152, 100: 302}
