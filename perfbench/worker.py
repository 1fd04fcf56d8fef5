"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with PYTHONHASHSEED pinned and PYTHONPATH set to the
checkout's src/.  Prints an environment line, a details line and, last, a
JSON result line for run.py to merge.

Load is a closed loop: one client, no threads; each request is sent when the
previous verdict has returned.  A CLI request is one in-process call of
``nomfix.cli.main(argv)`` on a generated .nom file with stdout captured;
an API request is one call of ``check_alpha_fresh``.  Only that call is
timed, and its time is scaled by the host-speed reference (reference.py).
Answers are checked outside the timed interval.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import nomfix
import nomfix.cli

import families as fam
import reference
from checks import check
from tracer import Tracer, install

HERE = Path(__file__).resolve().parent

# Ladders: sizes a factor of about 1.4 apart, trimmed so that one round of a
# workload takes two to three seconds on a 2-core Xeon with asserts on.  The
# dense steps keep the per-case latency distribution free of wide gaps, so its
# median does not jump between size classes from run to run.
SCALING_LADDERS = {
    "renamed-binder": (10, 14, 20, 28, 40),
    "same-binder": (50, 70, 100, 140, 200),
    "c-nest": (25, 35, 50, 70, 100),
    "ac-nest": (20, 28, 40, 57, 80),
    "susp-perm": (50, 70, 100, 140, 200),
}
CHAIN_LADDERS = {"plain-chain": (16, 20, 25, 32, 40, 51, 64), "abs-chain": (6, 8, 10, 12, 15, 19, 24)}
# Two more abs-chain pairs at the size whose requests sit at the middle of
# the latency distribution.  Solved and failing abs-chains of one size cost
# the same, so the median falls inside this cluster instead of on a
# gap between size classes, where the seed's inputs moved it by 25%.
CHAIN_MEDIAN = ("abs-chain", 12, 2)
# c-unification: k C-pairs -> copies per round.  The copies put the median
# inside the k=5 requests and the 90th percentile inside the k=8 ones, so
# that neither sits on the edge between two sizes.
CUNIFY_K = {4: 3, 5: 6, 6: 2, 7: 1, 8: 3}
SMALL_PER_ROUND = 480
# Request time between two reference walks.
REFERENCE_EVERY_S = 0.02


def check_scaling(rng):
    return fam.scaling_cases(rng, SCALING_LADDERS)


def unify_chain(rng):
    """At every size one solved chain and one ending in a failure, the
    failure kind rotating through clash, occurs and fixpoint-inconsistency."""
    makers = {"plain-chain": fam.plain_chain, "abs-chain": fam.abs_chain}
    failures = fam.UNIFY_OUTCOMES[1:]
    cases = []
    for family, sizes in CHAIN_LADDERS.items():
        for i, n in enumerate(sizes):
            cases.append(makers[family](rng, n, "solved"))
            cases.append(makers[family](rng, n, failures[i % len(failures)]))
    family, n, copies = CHAIN_MEDIAN
    for i in range(copies):
        cases.append(makers[family](rng, n, "solved"))
        cases.append(makers[family](rng, n, failures[(i + 1) % len(failures)]))
    return cases


def cunify_branch(rng):
    # --tree and --dedup are the seeded slices
    cases = [fam.c_pairs(rng, k) for k, copies in CUNIFY_K.items() for _ in range(copies)]
    cases += [fam.c_pairs(rng, k, ("--json", "--tree"), "tree") for k in (6, 8)]
    cases += [fam.c_pairs(rng, k, ("--json", "--dedup"), "dedup") for k, copies in ((3, 2), (4, 2), (5, 1))
              for _ in range(copies)]
    return cases


def cli_corpus(rng):
    return fam.corpus_cases(HERE / "corpus") + fam.small_cases(rng, SMALL_PER_ROUND) + fam.deep_cases(rng)


# name -> (case builder, latency percentile reported as latency_ms.tail).
# The percentile is taken over the cases of a round, one value per case, and
# falls among cases of one kind and size rather than between two.
WORKLOADS = {
    "check-scaling": (check_scaling, 95.0),
    "unify-chain": (unify_chain, 95.0),
    "cunify-branch": (cunify_branch, 90.0),
    "cli-corpus": (cli_corpus, 98.0),
}


# ---------------------------------------------------------------- requests


def request(case):
    """Send one request; return (exit code, output, seconds, exception name)."""
    if case.command == "api":
        fn = sys.modules["nomfix.freshness"].check_alpha_fresh
        start = time.perf_counter()
        try:
            out = fn(*case.api_args)
        except Exception as exc:  # a failed request is counted, not fatal
            return None, None, time.perf_counter() - start, type(exc).__name__
        return None, out, time.perf_counter() - start, None
    main = sys.modules["nomfix.cli"].main
    out, err = io.StringIO(), io.StringIO()
    exc_name = code = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(case.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed request is counted, not fatal
            exc_name = type(exc).__name__
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds, exc_name


class Judge:
    """Checks answers against the expected ones.  The first answer to each
    case is checked in full and kept; a later identical answer shares its
    verdict, a different one is checked in full again.  A request that
    raises is failed; unless the case is known to raise that exception
    today, it is also wrong, which makes the run incorrect."""

    def __init__(self):
        self.reference = {}
        self.wrong: list[str] = []

    def verdict(self, case, code, out, exc_name) -> str:
        if exc_name is not None:
            if exc_name != case.expect.get("known_raise"):
                self.wrong.append(f"{case.label}: raised {exc_name}")
            return "raised"
        ref = self.reference.get(id(case))
        if ref is not None and ref[0] == code and ref[1] == out:
            return ref[2]
        try:
            reason = check(case, code, out)
        except Exception as exc:  # output the checks cannot read back
            reason = f"unreadable answer ({type(exc).__name__}: {exc})"
        status = "ok" if reason is None else "wrong"
        if reason is not None:
            self.wrong.append(f"{case.label}: {reason}")
        if ref is None:
            self.reference[id(case)] = (code, out, status)
        return status


def prepare(cases, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for i, case in enumerate(cases):
        if case.command != "api":
            path = inputs / f"{i:04d}-{case.slice}.nom"
            path.write_text(case.text)
            case.argv = [case.command, *case.flags, str(path)]


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_values:
        return float("nan")
    pos = (len(sorted_values) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


# -------------------------------------------------------------- timed run


def timed_run(cases, seconds: float, rng, judge, tail_p: float):
    """Whole rounds of the cases, each in a seeded order, until `seconds` of
    request time have been spent.

    A reference walk (reference.py) is timed after every REFERENCE_EVERY_S
    of request time, and each request's time is scaled by the readings
    around it.  Each case then counts with the median of its scaled times
    over the run: throughput is cases per round over the sum of those
    medians, and the latency percentiles are taken over them, one value per
    case, so they do not depend on how many samples a run happened to draw.
    """
    meter = reference.Meter()
    meter.read(3)
    busy = since = 0.0
    attempted = rounds = 0
    samples = [[] for _ in cases]  # (seconds, readings taken before the request)
    failed_by_slice = {}
    ok_case = [True] * len(cases)
    while busy < seconds:
        order = list(range(len(cases)))
        rng.shuffle(order)
        for i in order:
            code, out, dt, exc_name = request(cases[i])
            samples[i].append((dt, len(meter.readings)))
            busy += dt
            since += dt
            attempted += 1
            if judge.verdict(cases[i], code, out, exc_name) != "ok":
                ok_case[i] = False
                slice_ = cases[i].slice
                failed_by_slice[slice_] = failed_by_slice.get(slice_, 0) + 1
            if since >= REFERENCE_EVERY_S:
                meter.read()
                since = 0.0
        rounds += 1
    meter.read(3)
    scales = meter.scales()
    scaled = [statistics.median(dt * scales[p] for dt, p in s) for s in samples]
    raw = [statistics.median(dt for dt, _ in s) for s in samples]
    ok = [i for i in range(len(cases)) if ok_case[i]]

    def summary(per_case):
        lat = sorted(per_case[i] for i in ok)
        return {
            "requests_per_s": len(ok) / sum(per_case),
            "latency_ms.p50": 1000 * percentile(lat, 50),
            "latency_ms.tail": 1000 * percentile(lat, tail_p),
        }

    failed = sum(failed_by_slice.values())
    metrics = summary(scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_share"] = (attempted - failed) / attempted
    details = {
        "rounds": rounds,
        "requests_per_round": len(cases),
        "request_busy_s": busy,
        "tail_percentile": tail_p,
        "cases_beyond_tail": sum(1 for i in ok if 1000 * scaled[i] > metrics["latency_ms.tail"]),
        "unscaled": summary(raw),
        "reference": {"readings": len(meter.readings), "median_ms": 1000 * meter.median(),
                      "min_ms": 1000 * min(meter.readings), "max_ms": 1000 * max(meter.readings),
                      "nominal_ms": 1000 * reference.NOMINAL_S},
        "failed_by_slice": failed_by_slice,
    }
    return attempted, failed, metrics, details


# ------------------------------------------------------------- traced run


def traced_run(cases, judge, spans_path: Path):
    """A fixed list of requests (one round, deep-nesting slice left out:
    the wrappers add a stack frame per traced call, so deep inputs would
    fail earlier than untraced), twice untraced then once traced."""
    fixed = [c for c in cases if not c.slice.startswith("deep-")]
    untraced = []
    for _ in range(2):
        untraced.append([request(c)[2] for c in fixed])
    best = [min(a, b) for a, b in zip(*untraced)]
    tracer = Tracer()
    install(tracer)
    traced_busy, failed, outputs = 0.0, 0, 0
    for i, case in enumerate(fixed):
        tracer.request = i
        code, out, dt, exc_name = request(case)
        traced_busy += dt
        if isinstance(out, str):
            outputs += len(out.encode())
        if judge.verdict(case, code, out, exc_name) != "ok":
            failed += 1
    metrics = layer_metrics(tracer, outputs)
    metrics.update(exponents(fixed, best))
    metrics["trace.overhead_share"] = traced_busy / min(sum(u) for u in untraced) - 1
    tracer.write_spans(spans_path)
    details = {"requests": len(fixed), "untraced_busy_s": [sum(u) for u in untraced],
               "traced_busy_s": traced_busy, "spans": sum(1 for s in tracer.spans if s),
               "spans_file": str(spans_path)}
    return len(fixed), failed, metrics, details


def _nodes(t) -> int:
    count, stack = 0, [t]
    while stack:
        u = stack.pop()
        count += 1
        if isinstance(u, fam.Abs):
            stack.append(u.body)
        elif isinstance(u, fam.Tup):
            stack.extend(u.items)
        elif isinstance(u, fam.App):
            stack.append(u.arg)
    return count


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    nodes = leaves = kept = 0
    for name, result in tracer.results:
        if name == "parser.parse_problem_file":
            for c in result.constraints:
                if isinstance(c, fam.Eq):
                    nodes += _nodes(c.lhs) + _nodes(c.rhs)
                else:
                    nodes += _nodes(c.target if isinstance(c, fam.Fix) else c.term)
        else:
            leaves += result.leaves
            kept += len(result.solutions)
    parser_ms = tracer.self_ms("parser")
    cunify_ms = tracer.inclusive_ms("cunify.c_unify")
    return {
        "parser.self_ms": parser_ms,
        "parser.nodes_per_ms": nodes / parser_ms if parser_ms else 0.0,
        "cli.self_ms": tracer.self_ms("cli"),
        "cli.output_bytes": output_bytes,
        "translate.self_ms": tracer.self_ms("translate"),
        "printer.print_term.calls": tracer.calls("printer.print_term"),
        "printer.self_ms": tracer.self_ms("printer"),
        "syntax.act.calls": tracer.calls("syntax.act"),
        "syntax.term_size.calls": tracer.calls("syntax.term_size"),
        "syntax.flatten.self_ms": tracer.self_ms("syntax.flatten"),
        "syntax.fresh_atoms": tracer.calls("syntax.NameGenerator.fresh"),
        "fixpoint.calls": tracer.calls("fixpoint.check_fixp", "fixpoint.check_alpha_fixp"),
        "fixpoint.self_ms": tracer.self_ms("fixpoint"),
        "freshness.calls": tracer.calls("freshness.check_fresh", "freshness.check_alpha_fresh"),
        "freshness.self_ms": tracer.self_ms("freshness"),
        "unify.expand.calls": tracer.calls("unify.expand"),
        "unify.expand.self_ms": tracer.self_ms("unify.expand"),
        "unify.problem_measure.self_ms": tracer.self_ms("unify.problem_measure"),
        "unify.extract_solution.self_ms": tracer.self_ms("unify.extract_solution"),
        "unify.is_more_general.calls": tracer.calls("unify.is_more_general"),
        "cunify.self_ms": tracer.self_ms("cunify"),
        "cunify.leaves": leaves,
        "cunify.ms_per_leaf": cunify_ms / leaves if leaves else 0.0,
        "cunify.kept_per_leaf": kept / leaves if leaves else 0.0,
    }


EXPONENT_FAMILIES = ("renamed-binder", "same-binder", "c-nest", "ac-nest", "susp-perm")


def exponents(cases, seconds) -> dict:
    """Growth exponents over each family's ladder, from untraced request
    times of the family's derivable / solved instances."""
    by = {}
    for case, dt in zip(cases, seconds):
        if case.command == "cunify" and case.slice == "c-pairs":
            by.setdefault(("cunify", "per-leaf"), {}).setdefault(2 ** case.size, []).append(dt / 2 ** case.size)
            continue
        exp = case.expect
        if case.command == "fresh" or not (
            exp.get("derivable") == [True] or exp.get("value") is True or exp.get("status") == "solved"
        ):
            continue
        layer = {"api": "freshness", "unify": "unify"}.get(case.command, "fixpoint")
        by.setdefault((layer, case.slice), {}).setdefault(case.size, []).append(dt)
    out = {}
    for family in EXPONENT_FAMILIES:
        for layer in ("fixpoint", "freshness"):
            if layer == "freshness" and family == "susp-perm":
                continue
            out[f"{layer}.exponent.{family}"] = _fit(by.get((layer, family)))
    for family in CHAIN_LADDERS:
        out[f"unify.exponent.{family}"] = _fit(by.get(("unify", family)))
    out["cunify.exponent.per-leaf"] = _fit(by.get(("cunify", "per-leaf")))
    return out


def _fit(points) -> float:
    if not points:
        return 0.0
    return slope(sorted((size, statistics.median(ts)) for size, ts in points.items()))


# -------------------------------------------------------------------- main


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "optimize": sys.flags.optimize,
        "asserts": __debug__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "nomfix": nomfix.__file__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    if Path(nomfix.__file__).resolve().parent != HERE.parent / "src" / "nomfix":
        print(f"error: imported nomfix from {nomfix.__file__}, not from this checkout", file=sys.stderr)
        return 2
    build, tail_p = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    cases = build(rng)
    inputs = args.out / f"inputs-{os.getpid()}"
    try:
        prepare(cases, inputs)
        judge = Judge()
        for case in cases:  # warm-up, and the full check of every first answer
            code, out, _, exc_name = request(case)
            judge.verdict(case, code, out, exc_name)
        gc.collect()
        print(json.dumps({"environment": environment()}))
        if args.trace:
            spans = args.out / f"spans-{args.workload}-{args.seed}.jsonl"
            attempted, failed, metrics, details = traced_run(cases, judge, spans)
        else:
            attempted, failed, metrics, details = timed_run(cases, args.seconds, rng, judge, tail_p)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    details["wrong"] = judge.wrong[:20]
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not judge.wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
