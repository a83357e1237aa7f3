#!/usr/bin/env python3
"""Fail when a benchmark run's simulated outputs drift from the record.

  python3 tools/bench_simdiff.py RUN.json RECORD.json [RUN.json RECORD.json ...]

Each pair is a fresh bench_qpscale or bench_msgrate report and the
committed one (BENCH_qpscale.json, BENCH_msgrate.json). Every field
except wallSeconds is a simulated output and deterministic, so each
point of the run must equal the record's point with the same identity
(transport, QP count, batching, message size) field for field, and the
top-level settings must match. The run may cover fewer points than the
record; a run point the record lacks is an error. Exit status 1 on any
difference, 2 on bad usage.
"""

import json
import sys

# Fields that name a point rather than measure it.
IDENTITY = ("transport", "qps", "batched", "msgBytes")
# Host wall-clock time: the only field allowed to differ.
WALL = "wallSeconds"


def strip_wall(value):
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k != WALL}
    if isinstance(value, list):
        return [strip_wall(v) for v in value]
    return value


def point_key(point):
    return tuple((k, point[k]) for k in IDENTITY if k in point)


def diff_reports(run_path, record_path):
    """Return a list of human-readable differences."""
    with open(run_path) as f:
        run = strip_wall(json.load(f))
    with open(record_path) as f:
        record = strip_wall(json.load(f))
    problems = []
    for key in sorted(set(run) | set(record)):
        if key != "points" and run.get(key) != record.get(key):
            problems.append("%s: %r != record %r" %
                            (key, run.get(key), record.get(key)))
    recorded = {point_key(p): p for p in record.get("points", [])}
    for point in run.get("points", []):
        key = point_key(point)
        name = " ".join("%s=%s" % kv for kv in key)
        want = recorded.get(key)
        if want is None:
            problems.append("%s: not in the record" % name)
            continue
        for field in sorted(set(point) | set(want)):
            if point.get(field) != want.get(field):
                problems.append("%s: %s %r != record %r" %
                                (name, field, point.get(field),
                                 want.get(field)))
    return problems, len(run.get("points", []))


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for run_path, record_path in zip(argv[0::2], argv[1::2]):
        problems, points = diff_reports(run_path, record_path)
        for p in problems:
            print("%s: %s" % (run_path, p))
        print("%s vs %s: %d points, %s" %
              (run_path, record_path, points,
               "%d differences" % len(problems) if problems
               else "simulated fields identical"))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
