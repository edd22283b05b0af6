#!/usr/bin/env python3
"""Benchmark entry point: build the harness, run one workload, report.

    python3 perfbench/run.py --workload sor_drop32 --seed 1 --seconds 20 --trace 0

Builds perfbench_harness from the repository sources (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs the
workload in fresh processes, one simulation each, until --seconds is used
up (at least three runs).  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it adds one traced run and prints the per-layer metrics.
Every run's output is checked; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sor_drop32", "jacobi_churn8", "cg_replica16")
MIN_RUNS = 3
# No process starts after this many seconds of measuring, and none outlives
# the deadline, so a run ends well inside 180 s even if a simulation hangs.
MEASURE_LIMIT_S = 140.0
DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources missing under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_harness", "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "perfbench_harness"


def run_once(harness, workload, seed, traced, deadline):
    """One simulation in a fresh process; returns (record or None, error)."""
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if record["error"]:
        return record, record["error"]
    if proc.returncode != 0:
        return record, f"exit {proc.returncode}"
    return record, ""


def measure(harness, workload, seed, seconds, traced):
    """Run untraced processes for about `seconds` (keeping room for the
    traced one when `traced`), then the traced one.  Returns one
    (record or None, error) pair per process."""
    outcomes = []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    while True:
        outcomes.append(run_once(harness, workload, seed, False, deadline))
        elapsed = time.monotonic() - start
        planned = elapsed + elapsed / len(outcomes) * (2 if traced else 1)
        if len(outcomes) >= MIN_RUNS and planned > seconds:
            break
        if planned > MEASURE_LIMIT_S:
            break
    if traced:
        outcomes.append(run_once(harness, workload, seed, True, deadline))
    return outcomes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        harness = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    outcomes = measure(harness, args.workload, args.seed, args.seconds,
                       args.trace == 1)
    errors = [e for _, e in outcomes if e]
    records = [r for r, e in outcomes if not e]
    mismatched = benchlib.guard_determinism(records)
    for r in mismatched:
        errors.append(f"trace={r['trace']} run departs from the others: "
                      f"{benchlib.det_key(r)}")
    bad = {id(r) for r in mismatched}
    good = [r for r in records if id(r) not in bad and not r["trace"]]
    traced = next((r for r in records if id(r) not in bad and r["trace"]), None)
    failed = len(errors)

    metrics = {}
    try:
        wall, samples = benchlib.host_wall(good)
    except (benchlib.InsufficientSamples, statistics.StatisticsError) as e:
        errors.append(f"no result from {len(good)} good runs: {e}")
    else:
        print(f"{args.workload} seed={args.seed}: {len(good)} untraced runs, "
              f"run_s {[round(r['run_s'], 3) for r in good]}, "
              f"median {wall['run_s'][0]:.3f} s, "
              f"cycle p50/p95 {wall['cycle_host_ms_p50'][0]:.2f}/"
              f"{wall['cycle_host_ms_p95'][0]:.2f} ms over {samples} samples")
        if args.trace == 0:
            metrics = benchlib.end_to_end(good)
        elif traced:
            metrics = benchlib.per_layer(traced, good)
    for e in errors:
        log(f"perfbench: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
