#!/usr/bin/env python3
"""Gate redistribution-planning performance against a committed baseline.

Reads two google-benchmark JSON files (current run, committed baseline) and
compares the plan-once speedup — the ratio of BM_RedistSchedule_Legacy to
BM_RedistSchedule_PlanOnce cpu_time at the same party count.  Ratios are
machine-portable where absolute times are not, so the committed baseline
stays valid across hosts.  A file with repetitions
(--benchmark_repetitions) contributes the median cpu_time of each
benchmark, so one noisy repetition cannot fail the gate; a single-run file,
such as the committed baseline, contributes its one time.

Fails when:
  * either benchmark is missing from the current run,
  * the current speedup falls below --min-speedup (the plan-once layer must
    beat the legacy pairwise executor by at least this factor), or
  * the current speedup regressed more than --max-regress relative to the
    baseline's speedup.

Usage:
  check_bench.py CURRENT.json BASELINE.json [--max-regress 0.25]
                 [--min-speedup 2.0] [--arg 64]
"""

import argparse
import json
import statistics
import sys

LEGACY = "BM_RedistSchedule_Legacy"
PLAN = "BM_RedistSchedule_PlanOnce"


def load_times(path):
    """Map benchmark name -> median cpu_time (ns) over its repetitions."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    reps = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if b.get("run_type", "iteration") != "iteration":
            continue
        reps.setdefault(b["name"], []).append(float(b["cpu_time"]))
    return {name: statistics.median(ts) for name, ts in reps.items()}


def speedup(times, arg, path):
    legacy = times.get(f"{LEGACY}/{arg}")
    plan = times.get(f"{PLAN}/{arg}")
    if legacy is None or plan is None:
        raise SystemExit(
            f"{path}: missing {LEGACY}/{arg} or {PLAN}/{arg} "
            f"(found: {sorted(times)})"
        )
    if plan <= 0.0:
        raise SystemExit(f"{path}: non-positive plan-once time {plan}")
    return legacy / plan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="google-benchmark JSON from this run")
    ap.add_argument("baseline", help="committed google-benchmark JSON")
    ap.add_argument("--max-regress", type=float, default=0.25,
                    help="tolerated relative speedup loss vs baseline")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="absolute plan-once speedup floor")
    ap.add_argument("--arg", type=int, default=64,
                    help="party count to gate on")
    args = ap.parse_args()

    cur = speedup(load_times(args.current), args.arg, args.current)
    base = speedup(load_times(args.baseline), args.arg, args.baseline)
    floor = base * (1.0 - args.max_regress)

    print(f"plan-once speedup @ {args.arg} parties: "
          f"current {cur:.2f}x, baseline {base:.2f}x, "
          f"floor {max(floor, args.min_speedup):.2f}x")

    ok = True
    if cur < args.min_speedup:
        print(f"FAIL: speedup {cur:.2f}x below required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        ok = False
    if cur < floor:
        print(f"FAIL: speedup {cur:.2f}x regressed more than "
              f"{args.max_regress:.0%} from baseline {base:.2f}x",
              file=sys.stderr)
        ok = False
    if not ok:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
