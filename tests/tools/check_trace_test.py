#!/usr/bin/env python3
"""tools/check_trace.py must refuse a trace that lost events, and one where
a rank ships both refresh kinds in one cycle (run via ctest:
trace.drop_gate).

TraceSink ends an export with a "trace.dropped" event when its ring buffer
overflowed (pinned by Trace.ExportsReportDroppedEvents in
tests/support/trace_test.cpp).  A trace missing its oldest events can still
look valid line by line, so the checker fails it unless --allow-drops says
the loss is expected.
"""

import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "tools",
                     "check_trace.py")

EVENT = ('{"t":1.500000000,"rank":0,"ev":"runtime.grace_enter",'
         '"args":{"cycle":3,"grace_cycles":5}}\n')
DROPPED = ('{"t":1.500000000,"rank":-1,"ev":"trace.dropped",'
           '"args":{"count":3}}\n')


def check(contents, *flags):
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as f:
        f.write(contents)
        path = f.name
    try:
        proc = subprocess.run([sys.executable, CHECK, path, *flags],
                              capture_output=True, text=True)
    finally:
        os.unlink(path)
    return proc.returncode, proc.stderr


class DropGate(unittest.TestCase):
    def test_lossless_trace_passes(self):
        self.assertEqual(check(EVENT)[0], 0)

    def test_dropped_events_fail(self):
        code, err = check(EVENT + DROPPED)
        self.assertEqual(code, 1)
        self.assertIn("lost 3 events", err)

    def test_allow_drops_accepts_the_loss(self):
        self.assertEqual(check(EVENT + DROPPED, "--allow-drops")[0], 0)

    def test_malformed_drop_count_fails(self):
        bad = DROPPED.replace('"count":3', '"count":"many"')
        self.assertEqual(check(EVENT + bad)[0], 1)


def cycle(t, dur, rank=0, n=4):
    return (f'{{"t":{t},"rank":{rank},"ev":"runtime.cycle","dur":{dur},'
            f'"args":{{"cycle":{n},"mode":"grace","redistributed":true}}}}\n')


def refresh(t, wholesale, rank=0, n=4):
    kind = "true" if wholesale else "false"
    return (f'{{"t":{t},"rank":{rank},"ev":"runtime.replica_refresh",'
            f'"dur":0.001,"args":{{"cycle":{n},"wholesale":{kind},'
            '"rows":8,"bytes":86}}\n')


class RefreshRule(unittest.TestCase):
    """A monitoring pass ships an incremental or a wholesale refresh, not
    both: the wholesale one re-ships every owned row."""

    def test_one_kind_per_cycle_passes(self):
        trace = (cycle(1.0, 0.5) + refresh(1.2, True) + refresh(1.3, True)
                 + cycle(1.5, 0.5, n=5) + refresh(1.7, False, n=5))
        self.assertEqual(check(trace)[0], 0)

    def test_both_kinds_in_one_cycle_fail(self):
        trace = cycle(1.0, 0.5) + refresh(1.2, False) + refresh(1.3, True)
        code, err = check(trace)
        self.assertEqual(code, 1)
        self.assertIn("rank 0 shipped an incremental and a wholesale", err)

    def test_other_ranks_and_gaps_between_cycles_do_not_mix(self):
        # Rank 1's wholesale refresh shares rank 0's cycle number, and the
        # manual redistribution at t = 1.6 runs between rank 0's cycles.
        trace = (cycle(1.0, 0.5) + cycle(1.0, 0.5, rank=1)
                 + refresh(1.2, False) + refresh(1.3, True, rank=1)
                 + refresh(1.6, True, n=5) + cycle(1.7, 0.5, n=5)
                 + refresh(1.8, False, n=5))
        self.assertEqual(check(trace)[0], 0)


if __name__ == "__main__":
    unittest.main()
