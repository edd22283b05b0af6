#!/usr/bin/env python3
"""tools/check_trace.py must refuse a trace that lost events (run via ctest:
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


if __name__ == "__main__":
    unittest.main()
