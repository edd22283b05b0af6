#!/usr/bin/env python3
"""Schema validator for Dyn-MPI JSONL traces (docs/OBSERVABILITY.md).

Usage:  check_trace.py TRACE.jsonl [--require-adaptation] [--allow-drops]

Checks, line by line:
  * every line parses as a JSON object;
  * required keys "t" (number), "rank" (int), "ev" (string), "args"
    (object) are present and typed; "dur", when present, is a positive
    number;
  * "t" is non-decreasing over the file (traces export sorted by sim time);
  * known event names carry their required args (unknown event names are
    an error — the schema is closed; extend the table when adding events);
  * no events were lost: a "trace.dropped" event (the sink's ring buffer
    overflowed, so the oldest events are missing) is an error unless
    --allow-drops is given;
  * no rank ships both an incremental and a wholesale
    "runtime.replica_refresh" inside one of its "runtime.cycle" spans: a
    monitoring pass that redistributes re-ships every owned row
    wholesale, so an incremental refresh beside it is wasted traffic.

With --require-adaptation the trace must additionally contain the full
Monitor -> Grace -> redistribute -> PostGrace story:
runtime.load_change, runtime.grace_enter, runtime.redistributed,
runtime.post_grace_enter and runtime.post_grace_exit, in that order of
first appearance.

Exit status: 0 valid, 1 invalid, 2 usage/IO error.
"""
import bisect
import json
import sys

# Closed schema: event name -> args that must be present.  Events may carry
# more args than listed (e.g. redist.apply's per-array rows.<name> keys).
KNOWN_EVENTS = {
    "runtime.cycle": {"cycle", "mode", "redistributed"},
    "runtime.load_change": {"cycle", "detail"},
    "runtime.grace_enter": {"cycle", "grace_cycles"},
    "runtime.redistributed": {"cycle", "detail"},
    "runtime.skipped": {"cycle", "detail"},
    "runtime.dropped": {"cycle", "detail"},
    "runtime.logical_drop": {"cycle", "detail"},
    "runtime.readded": {"cycle", "detail"},
    "runtime.post_grace_enter": {"cycle", "post_grace_cycles"},
    "runtime.post_grace_exit": {"cycle", "measured_s", "dropped"},
    "runtime.removal_eval": {
        "cycle", "predicted_unloaded_s", "measured_loaded_s",
        "unloaded_nodes", "drop",
    },
    "runtime.node_crash": {"cycle", "detail"},
    "runtime.crash_repair": {"cycle", "node", "rows_adopted"},
    "runtime.rollback_agreed": {"cycle", "restart_cycle"},
    "runtime.crash_rebalance": {"cycle", "rows_moved"},
    "runtime.replica_refresh": {"cycle", "wholesale", "rows", "bytes"},
    "runtime.replica_restore": {"cycle", "node", "buddy", "restored", "lost"},
    "runtime.rejoin": {"cycle", "detail"},
    "runtime.quarantine": {"cycle", "detail"},
    "runtime.readmit": {"cycle", "detail"},
    "runtime.stale_report": {"cycle", "node", "age_s"},
    "fault.inject": {"kind", "node"},
    "fault.clear": {"kind", "node"},
    "net.send_retry": {"src", "dst", "attempt"},
    "balancer.decision": {"cycle", "scheme", "candidates", "material"},
    "redist.apply": {
        "cycle", "active_before", "active_after", "rows", "bytes", "messages",
    },
    "redist.plan": {"seq"},
    "redist.pack": {"seq", "rows", "bytes", "messages"},
    "redist.unpack": {"seq"},
    "redist.sync": {"seq"},
    "redist.cleanup": {"seq"},
    "trace.dropped": {"count"},
    "machine.run_end": {
        "elapsed_s", "messages", "bytes", "control_messages",
        "events_fired", "peak_pending_events",
    },
}

ADAPTATION_STORY = [
    "runtime.load_change",
    "runtime.grace_enter",
    "runtime.redistributed",
    "runtime.post_grace_enter",
    "runtime.post_grace_exit",
]


def fail(lineno, msg):
    print(f"check_trace: line {lineno}: {msg}", file=sys.stderr)
    return False


def check_line(lineno, line):
    try:
        ev = json.loads(line)
    except json.JSONDecodeError as e:
        return None, fail(lineno, f"not valid JSON: {e}")
    if not isinstance(ev, dict):
        return None, fail(lineno, "line is not a JSON object")

    ok = True
    t = ev.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        ok = fail(lineno, f'"t" must be a number, got {t!r}')
    rank = ev.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool):
        ok = fail(lineno, f'"rank" must be an integer, got {rank!r}')
    name = ev.get("ev")
    if not isinstance(name, str):
        ok = fail(lineno, f'"ev" must be a string, got {name!r}')
    args = ev.get("args")
    if not isinstance(args, dict):
        ok = fail(lineno, f'"args" must be an object, got {args!r}')
    if "dur" in ev:
        dur = ev["dur"]
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                or dur <= 0:
            ok = fail(lineno, f'"dur" must be a positive number, got {dur!r}')
    extra = set(ev) - {"t", "rank", "ev", "dur", "args"}
    if extra:
        ok = fail(lineno, f"unexpected top-level keys: {sorted(extra)}")

    if isinstance(name, str) and isinstance(args, dict):
        required = KNOWN_EVENTS.get(name)
        if required is None:
            ok = fail(lineno, f'unknown event name "{name}"')
        else:
            missing = required - set(args)
            if missing:
                ok = fail(lineno,
                          f'"{name}" missing args: {sorted(missing)}')
    return ev, ok


def number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_refresh_kinds(cycles, refreshes):
    """Fail a rank whose cycle span holds both refresh kinds.

    cycles: rank -> [(start, end, cycle)]; refreshes: rank ->
    [(t, wholesale, lineno)].  A refresh outside every cycle span (a
    manual redistribution between cycles) belongs to no pass."""
    ok = True
    for rank, evs in refreshes.items():
        spans = sorted(cycles.get(rank, []))
        starts = [s[0] for s in spans]
        kinds = {}
        for t, wholesale, lineno in evs:
            i = bisect.bisect_right(starts, t) - 1
            if i < 0 or t > spans[i][1]:
                continue
            seen = kinds.setdefault(i, {})
            seen.setdefault(wholesale, lineno)
            if len(seen) == 2 and seen[wholesale] == lineno:
                ok = fail(lineno, f"rank {rank} shipped an incremental and a "
                          "wholesale runtime.replica_refresh in cycle "
                          f"{spans[i][2]} (lines {sorted(seen.values())})")
    return ok


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = set(argv[1:]) - set(args)
    if len(args) != 1 or flags - {"--require-adaptation", "--allow-drops"}:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(args[0], encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"check_trace: {e}", file=sys.stderr)
        return 2

    ok = True
    prev_t = None
    first_seen = {}
    cycles = {}
    refreshes = {}
    n_events = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        ev, line_ok = check_line(lineno, line)
        ok &= line_ok
        if ev is None:
            continue
        n_events += 1
        t = ev.get("t")
        if number(t):
            if prev_t is not None and t < prev_t:
                ok = fail(lineno,
                          f'"t" decreased: {t} after {prev_t}')
            prev_t = t
        name = ev.get("ev")
        if isinstance(name, str) and name not in first_seen:
            first_seen[name] = lineno
        args = ev.get("args")
        if name == "runtime.cycle" and number(t) and number(ev.get("dur")) \
                and isinstance(args, dict):
            cycles.setdefault(ev.get("rank"), []).append(
                (t, t + ev["dur"], args.get("cycle")))
        if name == "runtime.replica_refresh" and number(t) \
                and isinstance(args, dict):
            refreshes.setdefault(ev.get("rank"), []).append(
                (t, args.get("wholesale"), lineno))
        if name == "trace.dropped" and "--allow-drops" not in flags:
            count = args.get("count") if isinstance(args, dict) else None
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count > 0:
                ok = fail(lineno, f"the trace lost {count!r} events to ring "
                          "overflow (enable a larger capacity, or pass "
                          "--allow-drops)")

    if n_events == 0:
        ok = fail(0, "trace contains no events")
    ok &= check_refresh_kinds(cycles, refreshes)

    if "--require-adaptation" in flags:
        order = []
        for name in ADAPTATION_STORY:
            if name not in first_seen:
                ok = fail(0, f'adaptation story incomplete: no "{name}"')
            else:
                order.append(first_seen[name])
        if order == sorted(order) and len(order) == len(ADAPTATION_STORY):
            pass
        elif len(order) == len(ADAPTATION_STORY):
            ok = fail(0, "adaptation story events out of order: "
                      f"{list(zip(ADAPTATION_STORY, order))}")

    if ok:
        print(f"check_trace: OK — {n_events} events, "
              f"{len(first_seen)} distinct types")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
