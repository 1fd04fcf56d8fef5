"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
so a full run reads as a ten-line report.
"""

import random
import time

from nomfix import (
    Atom,
    Eq,
    FixpointContext,
    FreshnessContext,
    Permutation,
    Signature,
    Substitution,
    Susp,
    TermPool,
    Theory,
    Var,
    act,
    c_unify,
    check_alpha_fixp,
    check_alpha_fresh,
    check_fixp,
    check_fresh,
    completeness_check,
    flatten,
    fresh_judgement_via_fixp,
    free_vars,
    ground_alpha_oracle,
    is_more_general,
    parse_constraint,
    parse_perm,
    parse_problem_file,
    parse_term,
    print_term,
    unify,
    verify_solution,
)
from nomfix.cli import main as cli_main
from nomfix.unify import Solution
from gen import (
    ATOMS,
    SIG_C,
    SIG_CLASSES,
    SIG_FULL,
    SIG_PLAIN,
    random_fixp_context,
    random_fresh_context,
    random_perm,
    random_term,
)
from conftest import SEED

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y, W = Var("X"), Var("Y"), Var("W")
idp = Permutation.identity()


def report(capsys, num, title, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] criterion {num:2d}: {title}{suffix}")
    assert ok, detail


def test_01_worked_abstraction_example(capsys):
    # [a] f(X, a) =? [b] f((b c).W, (a c).Y): principal solution
    # X -> (a b)(b c).W, Y -> b under two fixed-point constraints on W
    pr = (parse_constraint("[a] f((X, a)) =? [b] f(((b c).W, (a c).Y))"),)
    t0 = time.perf_counter()
    res = unify(pr)
    elapsed = time.perf_counter() - t0
    ok = (
        res.solved
        and res.solution.subst(Susp(idp, X)) == parse_term("(a b)(b c).W")
        and res.solution.subst(Susp(idp, Y)) == parse_term("b")
        and sorted(x for _, x in res.solution.context.constraints) == [W, W]
        and verify_solution(Signature(permissive=True), pr, res.solution)
        and elapsed < 0.010
    )
    report(capsys, 1, "abstraction example solves to the expected principal solution",
           ok, f"{elapsed * 1000:.2f} ms")


def test_02_two_incomparable_solutions(capsys):
    pr = (parse_constraint("+((a b).X, a) =? +(Y, X)", SIG_C),)
    t0 = time.perf_counter()
    res = c_unify(pr, SIG_C)
    elapsed = time.perf_counter() - t0
    ok = res.solved and len(res.solutions) == 2 and elapsed < 0.010
    if ok:
        flat, constrained = sorted(res.solutions, key=lambda s: len(s.context.constraints))
        ok = (
            flat.context.constraints == frozenset()
            and flat.subst(Susp(idp, X)) == parse_term("a")
            and flat.subst(Susp(idp, Y)) == parse_term("b")
            and constrained.subst(Susp(idp, Y)) == parse_term("a")
            and X not in constrained.subst.domain()
            and not is_more_general(flat, constrained, [X, Y], SIG_C)
            and not is_more_general(constrained, flat, [X, Y], SIG_C)
        )
    report(capsys, 2, "commutative problem yields exactly two incomparable solutions",
           ok, f"{elapsed * 1000:.2f} ms")


def test_03_fixed_point_solution_covers_commutative_instances(capsys):
    pr = (parse_constraint("(a b).X =? X", SIG_C),)
    res = c_unify(pr, SIG_C)
    ok = res.solved and len(res.solutions) == 1
    if ok:
        sol = res.solutions[0]
        ((p, x),) = sol.context.constraints
        ok = x == X and p == parse_perm("(a b)") and sol.subst.is_identity()
        instances_in = [parse_term("+(a, b)", SIG_C), parse_term("+(f(a), f(b))", SIG_C)]
        instance_out = parse_term("+(a, f(b))", SIG_C)
        for t in instances_in:
            inst = Solution(FixpointContext(), Substitution({X: t}))
            ok = ok and is_more_general(sol, inst, [X], SIG_C)
        out = Solution(FixpointContext(), Substitution({X: instance_out}))
        ok = ok and not is_more_general(sol, out, [X], SIG_C)
    report(capsys, 3, "a fixed-point constraint subsumes its commutative instances", ok)


def test_04_fixed_point_matches_moved_term_equality(capsys):
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    mismatches = 0
    total = 2000
    for _ in range(total):
        ctx = random_fixp_context(rng)
        p = random_perm(rng)
        t = flatten(SIG_FULL, random_term(rng, SIG_FULL))
        if check_fixp(SIG_FULL, ctx, p, t) != check_alpha_fixp(SIG_FULL, ctx, act(p, t), t):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30
    report(capsys, 4, "pi fixes t iff pi.t is equivalent to t (2000 random triples)",
           ok, f"{mismatches} mismatches, {elapsed:.1f} s")


def test_05_three_system_agreement(capsys):
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    mismatches = pairs = 0
    for name, sig in SIG_CLASSES.items():
        for _ in range(2000):
            s = random_term(rng, sig, depth=3, ground=True)
            t = act(random_perm(rng), s) if rng.random() < 0.5 else random_term(
                rng, sig, depth=3, ground=True
            )
            pairs += 1
            want = ground_alpha_oracle(sig, s, t)
            if want != check_alpha_fixp(sig, FixpointContext(), s, t):
                mismatches += 1
            if want != check_alpha_fresh(sig, FreshnessContext(), s, t):
                mismatches += 1
    judgements = 1000
    for _ in range(judgements):
        ctx = random_fresh_context(rng)
        at = rng.choice(ATOMS)
        t = random_term(rng, SIG_PLAIN)
        if check_fresh(ctx, at, t) != fresh_judgement_via_fixp(SIG_PLAIN, ctx, at, t):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    report(capsys, 5, "oracle, fixed-point, and freshness systems agree "
           f"({pairs} ground pairs, {judgements} freshness judgements)",
           ok, f"{mismatches} mismatches, {elapsed:.1f} s")


def test_06_solver_soundness(capsys):
    rng = random.Random(SEED)
    bad = solved = 0
    for _ in range(350):
        pr = tuple(
            Eq(random_term(rng, SIG_PLAIN), random_term(rng, SIG_PLAIN))
            for _ in range(rng.randrange(1, 3))
        )
        res = unify(pr)
        if res.solved:
            solved += 1
            if not verify_solution(SIG_PLAIN, pr, res.solution):
                bad += 1
    for _ in range(200):
        pr = (Eq(random_term(rng, SIG_C, depth=2), random_term(rng, SIG_C, depth=2)),)
        res = c_unify(pr, SIG_C)
        solved += bool(res.solutions)
        for sol in res.solutions:
            if not verify_solution(SIG_C, pr, sol):
                bad += 1
    ok = bad == 0 and solved >= 50
    report(capsys, 6, "every returned solution verifies against the checking engines",
           ok, f"{solved} solved problems, {bad} bad solutions")


def test_07_completeness_on_small_universe(capsys):
    rng = random.Random(SEED)
    pool = TermPool(atoms=(a, b), signature=SIG_C, max_depth=1)
    t0 = time.perf_counter()
    checked = missed_total = 0
    while checked < 100 and time.perf_counter() - t0 < 240:
        pr = (
            Eq(
                random_term(rng, SIG_C, depth=1, atoms=(a, b), variables=(X, Y)),
                random_term(rng, SIG_C, depth=1, atoms=(a, b), variables=(X, Y)),
            ),
        )
        if not (free_vars(pr[0].lhs) | free_vars(pr[0].rhs)):
            continue
        res = c_unify(pr, SIG_C)
        if not res.solutions:
            continue
        found, covered, missed = completeness_check(SIG_C, pr, res.solutions, pool)
        if found == 0:
            continue
        checked += 1
        missed_total += len(missed)
    elapsed = time.perf_counter() - t0
    ok = checked >= 100 and missed_total == 0 and elapsed < 300
    report(capsys, 7, "no ground solution over a small universe is missed "
           "(100 solvable problems)", ok,
           f"{checked} problems, {missed_total} missed, {elapsed:.1f} s")


def test_08_termination_measure_assertions(capsys, data_dir):
    rng = random.Random(SEED)
    violations = 0
    if not __debug__:
        report(capsys, 8, "termination measure is asserted on every step", False,
               "assertions are disabled")
    try:
        for name in sorted(p.name for p in data_dir.glob("*.nom")):
            if name == "bad_syntax.nom":
                continue
            pf = parse_problem_file((data_dir / name).read_text())
            eqs = tuple(cst for cst in pf.constraints if not hasattr(cst, "atom"))
            if not eqs:
                continue
            if pf.signature.has_equational_symbols():
                if all(th is Theory.C or th is Theory.NONE
                       for th in pf.signature.symbols.values()):
                    c_unify(eqs, pf.signature)
            else:
                unify(eqs)
        for _ in range(300):
            unify((Eq(random_term(rng, SIG_PLAIN), random_term(rng, SIG_PLAIN)),))
        for _ in range(150):
            c_unify((Eq(random_term(rng, SIG_C, depth=2), random_term(rng, SIG_C, depth=2)),), SIG_C)
    except AssertionError:
        violations += 1
    ok = violations == 0
    report(capsys, 8, "the termination measure decreases on every solver step",
           ok, f"{violations} violations")


def test_09_equivariance(capsys):
    rng = random.Random(SEED)
    mismatches = 0
    total = 1000
    for _ in range(total):
        ctx = random_fixp_context(rng)
        rho = random_perm(rng)
        s = random_term(rng, SIG_FULL)
        t = act(random_perm(rng), s) if rng.random() < 0.5 else random_term(rng, SIG_FULL)
        if check_alpha_fixp(SIG_FULL, ctx, s, t) != check_alpha_fixp(
            SIG_FULL, ctx, act(rho, s), act(rho, t)
        ):
            mismatches += 1
        p = random_perm(rng)
        if check_fixp(SIG_FULL, ctx, p, s) != check_fixp(
            SIG_FULL, ctx, p.conjugate(rho), act(rho, s)
        ):
            mismatches += 1
    ok = mismatches == 0
    report(capsys, 9, "judgements are equivariant under renaming both sides "
           f"({total} instances)", ok, f"{mismatches} mismatches")


def test_10_cli_corpus(capsys, data_dir):
    expected = {
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
    wrong = []
    for (command, name), want in sorted(expected.items()):
        got = cli_main([command, str(data_dir / name)])
        if got != want:
            wrong.append(f"{command} {name}: {got} != {want}")
    # printed terms parse back to the same terms
    roundtrip_bad = 0
    for path in sorted(data_dir.glob("*.nom")):
        if path.name == "bad_syntax.nom":
            continue
        pf = parse_problem_file(path.read_text())
        for cst in pf.constraints:
            for t in ((cst.lhs, cst.rhs) if hasattr(cst, "lhs") else (cst.target,)
                      if hasattr(cst, "target") else (cst.term,)):
                if parse_term(print_term(t), pf.signature) != t:
                    roundtrip_bad += 1
    capsys.readouterr()  # drop the commands' own output
    ok = not wrong and roundtrip_bad == 0
    report(capsys, 10, "the command line handles the whole problem corpus",
           ok, "; ".join(wrong) or f"{roundtrip_bad} round-trip failures"
           if (wrong or roundtrip_bad) else "")
