import random

from hypothesis import given, strategies as st

from nomfix import (
    Abs,
    Atom,
    FixpointContext,
    FreshnessContext,
    NameGenerator,
    Signature,
    Var,
    act,
    check_alpha_fixp,
    check_alpha_fresh,
    check_fresh,
    check_fixp,
    fixp_to_fresh,
    fresh_judgement_via_fixp,
    fresh_to_fixp,
    parse_perm,
    parse_term,
)
from gen import ATOMS, SIG_FULL, SIG_PLAIN, random_fixp_context, random_fresh_context, random_perm, random_term

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y = Var("X"), Var("Y")
SIG0 = Signature(permissive=True)


class TestContextTranslation:
    def test_fresh_to_fixp_generates_one_atom_per_entry(self):
        ctx = FreshnessContext(frozenset({(a, X), (b, X), (a, Y)}))
        records = []
        out = fresh_to_fixp(ctx, NameGenerator(), records=records)
        assert len(out.constraints) == 3
        gen_atoms = set()
        for p, x in out.constraints:
            (sw,) = p.swappings
            assert {sw.left, sw.right} & {a, b}
            fresh_atom = sw.right if sw.left in (a, b) else sw.left
            assert fresh_atom.generated
            gen_atoms.add(fresh_atom)
        assert len(gen_atoms) == 3
        assert len(records) == 3 and all(r.generated for r in records)

    def test_fresh_to_fixp_default_generator_avoids_generated_atoms(self):
        c0 = Atom("#c0", gen_index=0)
        ((p, x),) = fresh_to_fixp(FreshnessContext(frozenset({(c0, X)}))).constraints
        assert x == X and len(p.support()) == 2 and c0 in p.support()

    def test_fixp_to_fresh_takes_supports(self):
        ctx = FixpointContext(
            frozenset({(parse_perm("(a b)(b c)"), X), (parse_perm("(a b)"), Y)})
        )
        out = fixp_to_fresh(ctx)
        assert out.constraints == frozenset({(a, X), (b, X), (c, X), (a, Y), (b, Y)})

    def test_identity_entries_vanish(self):
        ctx = FixpointContext(frozenset({(parse_perm("(a b)(a b)"), X)}))
        assert fixp_to_fresh(ctx).constraints == frozenset()


class TestJudgementTranslation:
    def test_fresh_judgement_examples(self):
        ctx = FreshnessContext(frozenset({(c, X)}))
        t = parse_term("(a c).X")
        assert fresh_judgement_via_fixp(SIG0, ctx, a, t)
        assert not fresh_judgement_via_fixp(SIG0, FreshnessContext(), a, t)

    def test_fresh_agrees_with_translated_fixp(self, rng):
        for _ in range(400):
            ctx = random_fresh_context(rng)
            at = rng.choice(ATOMS)
            t = random_term(rng, SIG_PLAIN)
            assert check_fresh(ctx, at, t) == fresh_judgement_via_fixp(SIG_PLAIN, ctx, at, t)

    def test_fixp_agrees_with_translated_fresh_syntactically(self, rng):
        # for plain signatures, pi fixes t exactly when every atom moved by
        # pi is fresh for t under the translated context; commutative symbols
        # break the right-to-left direction, so the scope stays syntactic
        for _ in range(400):
            ctx = random_fixp_context(rng)
            p = random_perm(rng)
            t = random_term(rng, SIG_PLAIN)
            lhs = check_fixp(SIG_PLAIN, ctx, p, t)
            translated = fixp_to_fresh(ctx)
            rhs = all(check_fresh(translated, x, t) for x in sorted(p.support()))
            assert lhs == rhs


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_of_contexts_preserves_alpha_derivability(seed):
    # freshness from fixed points: Delta, its fixed-point translation and
    # that translated back derive the same s ~ t
    rng = random.Random(seed)
    delta = random_fresh_context(rng)
    s = random_term(rng, SIG_FULL)
    match rng.randrange(3):
        case 0:
            t = act(random_perm(rng), s)
        case 1:
            # the same under a renamed binder
            x, y = rng.sample(ATOMS, 2)
            s, t = Abs(x, s), Abs(y, act(random_perm(rng), s))
        case _:
            t = random_term(rng, SIG_FULL)
    fixp = fresh_to_fixp(delta)
    want = check_alpha_fresh(SIG_FULL, delta, s, t)
    assert check_alpha_fixp(SIG_FULL, fixp, s, t) == want
    assert check_alpha_fresh(SIG_FULL, fixp_to_fresh(fixp), s, t) == want
