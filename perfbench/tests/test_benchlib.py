"""Self-tests of the benchmark arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import benchlib  # noqa: E402


def record(trace=0, run_s=2.0, **det_overrides):
    det = {"virt_elapsed_s": 5.5, "virt_cycle_ms": 12.25, "virt_redist_s": 0.5,
           "checksum": 1.0, "events": 1000, "peak_pending_events": 40,
           "redistributions": 2, "redo_cycles": 0}
    for s in benchlib.SPACES:
        det[f"messages.{s}"] = 100
        det[f"bytes.{s}"] = 800
    det.update(det_overrides)
    return {"trace": trace, "setup_wall_s": 0.5, "setup_cpu_s": 0.25, "run_s": run_s,
            "engine_cpu_s": 0.5, "rank_cpu_s": 0.75, "user_s": 1.0,
            "sys_s": 0.125, "handoffs": 800, "peak_rss_mb": 30.0,
            "cycle_host_s": [0.001 * (i + 1) for i in range(120)],
            "cycle_mode": ["monitor"] * 100 + ["grace"] * 10 + ["redist"] * 10,
            "det": det}


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 201))  # 1..200, shuffled order must not matter
        samples.reverse()
        self.assertEqual(benchlib.percentile(samples, 50), 100)
        self.assertEqual(benchlib.percentile(samples, 95), 190)
        self.assertEqual(benchlib.percentile(samples, 0, min_beyond=0), 1)

    def test_ten_beyond_rule(self):
        # p95 of 200 samples is the 190th: exactly 10 above it.
        benchlib.percentile(list(range(200)), 95)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile(list(range(199)), 95)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile([], 50)

    def test_p50_needs_twenty_samples(self):
        benchlib.percentile(list(range(20)), 50)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile(list(range(19)), 50)


class OffCpu(unittest.TestCase):
    def test_subtraction(self):
        self.assertAlmostEqual(benchlib.offcpu_s(10.0, 1.5, 2.5), 6.0)

    def test_per_layer_uses_traced_run(self):
        untraced = [record(run_s=2.5), record(run_s=2.0), record(run_s=2.75)]
        m = benchlib.per_layer(dict(record(trace=1, run_s=3.0), snapshot={}),
                               untraced)
        self.assertAlmostEqual(m["mpisim.offcpu_s"][0], 3.0 - 0.5 - 0.75)
        self.assertAlmostEqual(m["bench.trace_overhead_s"][0], 0.5)
        self.assertAlmostEqual(m["mpisim.handoffs_per_msg"][0], 2.0)
        self.assertAlmostEqual(m["mpisim.host_us_per_msg"][0], 3.0 / 400 * 1e6)
        self.assertAlmostEqual(m["sim.engine_ns_per_event"][0], 0.5e6)
        self.assertAlmostEqual(m["dynmpi.cycle_host_ms.redist"][0], 115.5)
        self.assertEqual(m["dynmpi.cycle_host_ms.post_grace"][0], 0.0)


SNAPSHOT = """{
  "counters": {
    "balancer.calls": 7,
    "redist.bytes": 4096,
    "redist.messages": 3,
    "redist.rows_moved": 12,
    "runtime.replica_bytes": 65536
  },
  "gauges": {"machine.elapsed_s": 5.5},
  "histograms": {
    "balancer.rounds": {"count": 7, "sum": 15, "min": 1, "max": 4,
                        "mean": 2.14, "p50": 2, "p90": 4, "p99": 4},
    "redist.pack_s": {"count": 2, "sum": 0.25, "min": 0.1, "max": 0.15,
                      "mean": 0.125, "p50": 0.1, "p90": 0.15, "p99": 0.15},
    "redist.unpack_s": {"count": 2, "sum": 0.5, "min": 0.2, "max": 0.3,
                        "mean": 0.25, "p50": 0.2, "p90": 0.3, "p99": 0.3}
  }
}"""


class SnapshotParsing(unittest.TestCase):
    def test_layers_from_snapshot(self):
        m = benchlib.snapshot_layers(json.loads(SNAPSHOT))
        self.assertEqual(m["dynmpi.balancer.calls"], (7, "count"))
        self.assertEqual(m["dynmpi.balancer.rounds"], (15, "count"))
        self.assertEqual(m["dynmpi.redist.bytes"], (4096, "B"))
        self.assertEqual(m["dynmpi.redist.pack_s"], (0.25, "s"))
        self.assertEqual(m["dynmpi.redist.unpack_s"], (0.5, "s"))
        self.assertEqual(m["dynmpi.replica_bytes"], (65536, "B"))

    def test_missing_instruments_read_zero(self):
        m = benchlib.snapshot_layers(json.loads(SNAPSHOT))
        self.assertEqual(m["dynmpi.redist.sync_s"], (0.0, "s"))
        self.assertEqual(m["dynmpi.restored_rows"], (0, "count"))
        self.assertEqual(benchlib.snapshot_layers({})["dynmpi.redist.wall_s"],
                         (0.0, "s"))


class Aggregation(unittest.TestCase):
    def test_host_wall_medians_and_pooled_cycles(self):
        runs = [record(run_s=s) for s in (3.0, 1.0, 2.0)]
        m, samples = benchlib.host_wall(runs)
        self.assertEqual(samples, 360)
        self.assertEqual(m["run_s"], (2.0, "s"))
        self.assertEqual(m["setup_wall_s"], (0.5, "s"))
        self.assertAlmostEqual(m["cycle_host_ms_p50"][0], 60.0)
        self.assertAlmostEqual(m["cycle_host_ms_p95"][0], 114.0)

    def test_host_wall_refuses_a_thin_p95(self):
        run = record()
        run["cycle_host_s"] = run["cycle_host_s"][:150]
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.host_wall([run])

    def test_end_to_end(self):
        runs = [record(), dict(record(), setup_cpu_s=0.5),
                dict(record(), setup_cpu_s=0.125)]
        m = benchlib.end_to_end(runs)
        self.assertEqual(m["setup_s"], (0.25, "s"))
        self.assertEqual(m["peak_rss_mb"], (30.0, "MB"))
        self.assertEqual(m["virt_elapsed_s"], (5.5, "s"))
        self.assertEqual(m["virt_cycle_ms"], (12.25, "ms"))

    def test_determinism_guard(self):
        runs = [record(), record(trace=1), record(events=1001), record()]
        self.assertEqual(benchlib.guard_determinism(runs), [runs[2]])
        bad = benchlib.guard_determinism(
            [record(), record(trace=1, virt_elapsed_s=5.500000000000001)])
        self.assertEqual(len(bad), 1)
        self.assertEqual(benchlib.guard_determinism([]), [])


if __name__ == "__main__":
    unittest.main()
