#!/usr/bin/env python3
"""Fail when a benchmark run's simulated outputs drift from the record.

  python3 tools/bench_simdiff.py RUN.json RECORD.json [RUN.json RECORD.json ...]

Each pair is a fresh bench_qpscale, bench_msgrate or bench_simspeed
report and the committed one (BENCH_qpscale.json, BENCH_msgrate.json,
BENCH_simspeed.json). Only simulated outputs are compared; they are
deterministic, so each row of the run must equal the record's row with
the same identity field for field, and the top-level settings must
match. The run may cover fewer rows than the record; a run row the
record lacks is an error. Exit status 1 on any difference, 2 on bad
usage.

qpscale and msgrate: every field except wallSeconds is simulated, and
a point is identified by (transport, QP count, batching, message size).

simspeed: a workload row is identified by its name, and only the fields
in SIMSPEED_ROW are simulated (the others are wall-clock rates); of the
top level, scaleMb and aggregate.ttcpEvents are (hostCores, reps and
the hand-written methodology notes are not).
"""

import json
import sys

# Fields that name a qpscale/msgrate point rather than measure it.
IDENTITY = ("transport", "qps", "batched", "msgBytes")
# Host wall-clock time: the only qpscale/msgrate field allowed to differ.
WALL = "wallSeconds"
# The simulated fields of a simspeed workload row.
SIMSPEED_ROW = ("completed", "threads", "events", "simTicks", "simBytes",
                "epochs", "mailboxPosts", "batchedPosts", "horizonStalls")


def strip_wall(value):
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k != WALL}
    if isinstance(value, list):
        return [strip_wall(v) for v in value]
    return value


def point_key(point):
    return tuple((k, point[k]) for k in IDENTITY if k in point)


def simulated_view(report):
    """Return (top-level settings, {row identity: row}), simulated only."""
    if report.get("benchmark") == "simspeed":
        top = {"benchmark": report.get("benchmark"),
               "scaleMb": report.get("scaleMb"),
               "aggregate.ttcpEvents":
                   report.get("aggregate", {}).get("ttcpEvents")}
        rows = {(("name", w["name"]),):
                {f: w[f] for f in SIMSPEED_ROW if f in w}
                for w in report.get("workloads", [])}
        return top, rows
    report = strip_wall(report)
    top = {k: v for k, v in report.items() if k != "points"}
    rows = {point_key(p): p for p in report.get("points", [])}
    return top, rows


def diff_reports(run_path, record_path):
    """Return a list of human-readable differences and the row count."""
    with open(run_path) as f:
        run_top, run_rows = simulated_view(json.load(f))
    with open(record_path) as f:
        rec_top, rec_rows = simulated_view(json.load(f))
    problems = []
    for key in sorted(set(run_top) | set(rec_top)):
        if run_top.get(key) != rec_top.get(key):
            problems.append("%s: %r != record %r" %
                            (key, run_top.get(key), rec_top.get(key)))
    for key, row in run_rows.items():
        name = " ".join("%s=%s" % kv for kv in key)
        want = rec_rows.get(key)
        if want is None:
            problems.append("%s: not in the record" % name)
            continue
        for field in sorted(set(row) | set(want)):
            if row.get(field) != want.get(field):
                problems.append("%s: %s %r != record %r" %
                                (name, field, row.get(field),
                                 want.get(field)))
    return problems, len(run_rows)


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for run_path, record_path in zip(argv[0::2], argv[1::2]):
        problems, rows = diff_reports(run_path, record_path)
        for p in problems:
            print("%s: %s" % (run_path, p))
        print("%s vs %s: %d rows, %s" %
              (run_path, record_path, rows,
               "%d differences" % len(problems) if problems
               else "simulated fields identical"))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
