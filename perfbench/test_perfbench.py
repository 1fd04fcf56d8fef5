"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import families as fam  # noqa: E402
import worker  # noqa: E402
from checks import check  # noqa: E402
from nomfix import c_unify, unify, verify_solution  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("cunify.leaves", "syntax.fresh_atoms")


def _fingerprint(cases):
    return [(c.label, c.text, c.flags, json.dumps(c.expect, sort_keys=True, default=str), repr(c.api_args))
            for c in cases]


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_generators_are_deterministic(name):
    build, _ = worker.WORKLOADS[name]
    first = _fingerprint(build(random.Random(f"{name}/7")))
    assert first == _fingerprint(build(random.Random(f"{name}/7")))
    assert first != _fingerprint(build(random.Random(f"{name}/8")))


def test_scaling_answers_agree_with_oracle_at_smallest_size():
    ladders = {family: (min(sizes),) for family, sizes in worker.SCALING_LADDERS.items()}
    cases = fam.scaling_cases(random.Random(1), ladders)
    ground = [c for c in cases if c.ground]
    assert len(ground) == 20  # 4 pairs per family, plus 2 fresh goals per binder family
    for case in ground:
        want = case.expect["derivable"] if case.command != "api" else [case.expect["value"]]
        assert [fam.decide(case.sig, g) for g in case.goals] == want, case.label


def test_small_sizes_agree_with_oracle_and_engines():
    """Families that are not ground: the chains and c-pairs at their
    smallest sizes, solved by the library and checked with verify_solution."""
    rng = random.Random(2)
    for make in (fam.plain_chain, fam.abs_chain):
        for outcome in fam.UNIFY_OUTCOMES:
            case = make(rng, 2, outcome)
            res = unify(case.goals)
            assert res.status == case.expect["status"], case.label
            if res.solved:
                assert verify_solution(case.sig, case.goals, res.solution)
            else:
                assert res.witness_kind == case.expect["kind"], (case.label, outcome)
    for flags in (("--json",), ("--json", "--dedup")):
        case = fam.c_pairs(rng, 3, flags)
        res = c_unify(case.goals, case.sig, dedup="--dedup" in flags)
        assert len(res.solutions) == case.expect["solutions"]
        assert res.leaves == case.expect["leaves"]
        assert all(verify_solution(case.sig, case.goals, s) for s in res.solutions)


def test_small_cli_cases_pass_their_checks():
    cases = fam.small_cases(random.Random(3), 30)
    worker.prepare(cases, ROOT / "perfbench" / "out" / "test-inputs")
    judge = worker.Judge()
    for case in cases:
        code, out, _, exc_name = worker.request(case)
        assert exc_name is None
        assert judge.verdict(case, code, out, exc_name) == "ok", (case.label, judge.wrong)


def test_check_rejects_a_wrong_verdict():
    case = fam.scaling_cases(random.Random(4), {"same-binder": (3,)})[0]
    assert case.command == "alpha" and case.expect["derivable"] == [True]
    good = json.dumps({"results": [{"derivable": True}]})
    bad = json.dumps({"results": [{"derivable": False}]})
    assert check(case, 0, good) is None
    assert check(case, 0, bad) is not None
    assert check(case, 1, bad) is not None


def test_text_answers_are_checked_in_full(tmp_path):
    """Text output is read back and verified: a changed unifier or a dropped
    translated entry is rejected, not only a wrong status line."""
    cases = [c for c in fam.small_cases(random.Random(6), 300) if c.flags == ()]
    worker.prepare(cases, tmp_path)
    tampered = {}
    for case in cases:
        code, out, _, exc_name = worker.request(case)
        assert exc_name is None and check(case, code, out) is None, (case.label, out)
        if case.command == "translate" and not out.startswith("{}"):
            tampered.setdefault("translate", (case, code, re.sub(r"\{[^,}]*(, )?", "{", out, count=1)))
        elif case.command in ("unify", "cunify") and " -> " in out:
            tampered.setdefault(case.command, (case, code, out.replace(" -> ", " -> [zzq] ", 1)))
    assert sorted(tampered) == ["cunify", "translate", "unify"]
    for case, code, out in tampered.values():
        assert worker.Judge().verdict(case, code, out, None) == "wrong", (case.label, out)


def test_a_raising_request_makes_the_run_incorrect():
    """Only the deep inputs known to raise today may raise without making
    the run incorrect; they still count as failed."""
    known = [c for c in fam.deep_cases(random.Random(0)) if c.expect["known_raise"]]
    small = fam.small_cases(random.Random(0), 1)[0]
    judge = worker.Judge()
    for case in known:
        assert judge.verdict(case, None, None, "RecursionError") == "raised"
    assert judge.wrong == []
    assert judge.verdict(small, None, None, "RecursionError") == "raised"
    assert judge.verdict(known[0], None, None, "AssertionError") == "raised"
    assert len(judge.wrong) == 2


def _worker(workload: str, trace: int, hash_seed: str = "0") -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.01", "--trace", str(trace), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_scales_follow_the_readings_around_a_request():
    import reference

    meter = reference.Meter()
    meter.readings = [0.001] * 40 + [0.002] * 40
    scales = meter.scales()
    assert len(scales) == 81
    assert scales[0] == pytest.approx(reference.NOMINAL_S / 0.001)
    assert scales[-1] == pytest.approx(reference.NOMINAL_S / 0.002)
    assert reference.walk() > 0


def test_workload_names_agree():
    import run

    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(run.WORKLOADS) == set(worker.WORKLOADS)


def test_every_printed_metric_is_declared():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert set(_worker("cli-corpus", 0)["metrics"]) == e2e - {"setup_s"}
    assert set(_worker("cli-corpus", 1)["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_run_prints_the_declared_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-corpus", "--seed", "1", "--seconds", "0.01",
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_across_hash_seeds():
    a = _worker("cunify-branch", 1, "0")["metrics"]
    b = _worker("cunify-branch", 1, "12345")["metrics"]
    counts = [n for n in a if n.endswith(".calls") or n in COUNTS]
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert a["cunify.leaves"] > 0 and a["unify.expand.calls"] > 0


def test_wrappers_reach_names_bound_by_from_imports():
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import nomfix, nomfix.cli
from tracer import Tracer, install
install(Tracer())
for mod, attr in [("nomfix.cunify", "expand"), ("nomfix.fixpoint", "print_term"),
                  ("nomfix.cli", "check_alpha_fixp"), ("nomfix.unify", "unify"), ("nomfix", "c_unify")]:
    assert hasattr(getattr(sys.modules[mod], attr), "__wrapped__"), (mod, attr)
"""
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)], check=True, timeout=60)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-corpus", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
