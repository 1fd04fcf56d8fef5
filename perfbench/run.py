"""nomfix benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (src/nomfix must exist; nothing needs
building).  Measures set-up time (fresh ``python -m nomfix.cli --version``
processes, scaled by bare interpreter starts; see setup_seconds), then runs the workload in a fresh worker process and prints,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from a separate traced run.

Every interpreter it starts runs with PYTHONHASHSEED=0: hash seeds change set
and dict layout, and fresh processes measured with random seeds spread two to
three times wider than with a pinned one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
# A bare interpreter start takes about this long on the 2-vCPU Xeon VM the
# benchmark was tuned on.
BARE_NOMINAL_S = 0.05
WORKER_TIMEOUT_S = 160
WORKLOADS = ("check-scaling", "unify-chain", "cunify-branch", "cli-corpus")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONOPTIMIZE", None)  # measure with asserts on, as installed
    return env


def setup_seconds(env: dict) -> tuple[float, dict]:
    """Set-up time: the median wall time of a fresh `python -m nomfix.cli
    --version`, scaled by BARE_NOMINAL_S over the median time of a bare
    `python -c pass` started next to each one.  The scaling takes out the
    host's speed, which moves both starts alike, and keeps what nomfix adds
    to the interpreter's start.  One discarded pair first, so that bytecode
    caches exist."""
    cmd = [sys.executable, "-m", "nomfix.cli", "--version"]
    bare_cmd = [sys.executable, "-c", "pass"]
    times, bare = [], []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith(b"nomfix "):
            raise RuntimeError(f"nomfix --version failed: {proc.stderr.decode()[-500:]}")
        start = time.perf_counter()
        subprocess.run(bare_cmd, env=env, cwd=ROOT, capture_output=True, timeout=60, check=True)
        bare_elapsed = time.perf_counter() - start
        if i:
            times.append(elapsed)
            bare.append(bare_elapsed)
    raw, bare_median = statistics.median(times), statistics.median(bare)
    return raw * BARE_NOMINAL_S / bare_median, {"unscaled_s": raw, "bare_start_s": bare_median,
                                                "bare_nominal_s": BARE_NOMINAL_S}


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over src/nomfix/*.py, which identifies the code measured even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nomfix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nomfix" / "cli.py").is_file():
        print(f"error: no nomfix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    OUT.mkdir(exist_ok=True)
    setup, setup_info = (None, None) if args.trace else setup_seconds(env)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        info = json.loads(line)
        if "environment" in info:
            info["environment"]["commit"] = commit()
            info["environment"]["source_sha256"] = source_digest()
            info["environment"]["setup_repeats"] = SETUP_REPEATS
        if "details" in info and setup_info is not None:
            info["details"]["setup"] = setup_info
        print(json.dumps(info))

    metrics = dict(result["metrics"])
    if setup is not None:
        metrics["setup_s"] = setup
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
