"""Arithmetic of the benchmark: percentiles, medians, the off-CPU split,
metrics-snapshot parsing and the determinism guard.

Pure functions over the JSON records perfbench_harness prints (one record
per measured process); run.py does the process handling.  Self-tests live
in perfbench/tests.
"""

import json
import math
import statistics

# A percentile is reported only if at least this many samples lie above it.
MIN_BEYOND = 10

SPACES = ("user", "collective", "runtime", "control")
CYCLE_MODES = ("monitor", "grace", "post_grace", "redist")


class InsufficientSamples(ValueError):
    pass


def percentile(samples, p, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.

    Raises InsufficientSamples unless at least `min_beyond` samples are
    strictly ranked above the one returned.
    """
    n = len(samples)
    if n == 0:
        raise InsufficientSamples("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it, "
            f"need {min_beyond}")
    return sorted(samples)[rank - 1]


def offcpu_s(run_s, engine_cpu_s, rank_cpu_s):
    """Run-window wall time during which no simulator thread was on a CPU
    (the baton is in flight between threads)."""
    return run_s - engine_cpu_s - rank_cpu_s


def total_messages(det):
    return sum(det[f"messages.{s}"] for s in SPACES)


def det_key(record):
    """Canonical text of a record's deterministic part (virtual results and
    event/message/byte/row counts) for bit-exact comparison."""
    return json.dumps(record["det"], sort_keys=True)


def guard_determinism(records):
    """Records whose deterministic part differs from the most common one;
    each is a failed run."""
    keys = [det_key(r) for r in records]
    if not keys:
        return []
    ref = max(set(keys), key=keys.count)
    return [r for r, k in zip(records, keys) if k != ref]


def end_to_end(records):
    """End-to-end metrics of the untraced records of one workload and seed:
    medians over processes, and the (identical) virtual results.  setup_s is
    the CPU time the engine and rank threads spend from Machine construction
    to rank 0's cycle-0 hook; its wall-clock twin is per-layer."""
    det = records[0]["det"]
    return {
        "setup_s": (statistics.median(r["setup_cpu_s"] for r in records), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
        "virt_elapsed_s": (det["virt_elapsed_s"], "s"),
        "virt_cycle_ms": (det["virt_cycle_ms"], "ms"),
    }


def host_wall(records):
    """Host wall-time metrics of untraced records: median set-up and run
    time, and percentiles of the rank-0 cycle samples pooled over all records.
    Returns (metrics, pooled sample count)."""
    cycles_ms = [s * 1e3 for r in records for s in r["cycle_host_s"]]
    return {
        "setup_wall_s": (statistics.median(r["setup_wall_s"] for r in records), "s"),
        "run_s": (statistics.median(r["run_s"] for r in records), "s"),
        "cycle_host_ms_p50": (percentile(cycles_ms, 50), "ms"),
        "cycle_host_ms_p95": (percentile(cycles_ms, 95), "ms"),
    }, len(cycles_ms)


def _counter(snapshot, name):
    return snapshot.get("counters", {}).get(name, 0)


def _hist_sum(snapshot, name):
    return snapshot.get("histograms", {}).get(name, {}).get("sum", 0.0)


def snapshot_layers(snapshot):
    """Per-layer metrics read from the program's metrics snapshot (the JSON
    of support::MetricsRegistry::snapshot_json).  Instruments a run never
    touched read as 0."""
    return {
        "dynmpi.redist.pack_s": (_hist_sum(snapshot, "redist.pack_s"), "s"),
        "dynmpi.redist.unpack_s": (_hist_sum(snapshot, "redist.unpack_s"), "s"),
        "dynmpi.redist.sync_s": (_hist_sum(snapshot, "redist.sync_s"), "s"),
        "dynmpi.redist.wall_s": (_hist_sum(snapshot, "redist.wall_s"), "s"),
        "dynmpi.redist.rows_moved": (_counter(snapshot, "redist.rows_moved"), "count"),
        "dynmpi.redist.bytes": (_counter(snapshot, "redist.bytes"), "B"),
        "dynmpi.redist.messages": (_counter(snapshot, "redist.messages"), "count"),
        "dynmpi.balancer.calls": (_counter(snapshot, "balancer.calls"), "count"),
        "dynmpi.balancer.rounds": (_hist_sum(snapshot, "balancer.rounds"), "count"),
        "dynmpi.replica_bytes": (_counter(snapshot, "runtime.replica_bytes"), "B"),
        "dynmpi.restored_rows": (_counter(snapshot, "runtime.restored_rows"), "count"),
    }


def cycle_host_by_mode(record):
    """Mean host ms per cycle, split by rank 0's CycleRecord of that cycle;
    0 for a mode no cycle was in."""
    by_mode = {m: [] for m in CYCLE_MODES}
    for s, mode in zip(record["cycle_host_s"], record["cycle_mode"]):
        by_mode[mode].append(s * 1e3)
    return {f"dynmpi.cycle_host_ms.{m}": (statistics.fmean(v) if v else 0.0, "ms")
            for m, v in by_mode.items()}


def per_layer(traced, untraced):
    """Per-layer metrics: host wall time from the untraced records, every
    layer split from the traced record, and the tracing overhead between
    the two."""
    metrics, _ = host_wall(untraced)
    det = traced["det"]
    msgs = total_messages(det)
    run_s = traced["run_s"]
    engine = traced["engine_cpu_s"]
    metrics.update({
        "sim.engine_cpu_s": (engine, "s"),
        "sim.events": (det["events"], "count"),
        "sim.engine_ns_per_event": (engine / det["events"] * 1e9, "ns/event"),
        "sim.peak_pending_events": (det["peak_pending_events"], "count"),
        "mpisim.rank_cpu_s": (traced["rank_cpu_s"], "s"),
        "mpisim.offcpu_s": (offcpu_s(run_s, engine, traced["rank_cpu_s"]), "s"),
        "mpisim.handoffs": (traced["handoffs"], "count"),
        "mpisim.handoffs_per_msg": (traced["handoffs"] / msgs, "count/msg"),
        "mpisim.host_us_per_msg": (run_s / msgs * 1e6, "us/msg"),
        "mpisim.user_s": (traced["user_s"], "s"),
        "mpisim.sys_s": (traced["sys_s"], "s"),
    })
    for s in SPACES:
        metrics[f"mpisim.messages.{s}"] = (det[f"messages.{s}"], "count")
        metrics[f"mpisim.bytes.{s}"] = (det[f"bytes.{s}"], "B")
    metrics.update(cycle_host_by_mode(traced))
    metrics.update(snapshot_layers(traced["snapshot"]))
    metrics["dynmpi.redistributions"] = (det["redistributions"], "count")
    metrics["virt_redist_s"] = (det["virt_redist_s"], "s")
    metrics["apps.redo_cycles"] = (det["redo_cycles"], "count")
    metrics["bench.trace_overhead_s"] = (run_s - metrics["run_s"][0], "s")
    return metrics
