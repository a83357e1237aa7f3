#!/usr/bin/env python3
"""Checks tools/qpip_statdiff.py on two tiny stat-registry dumps.

  python3 tests/test_statdiff.py PATH/TO/qpip_statdiff.py

Identical dumps must exit 0; a one-counter change must exit 1 and name
that path; an added and a removed path must each be named too.
"""

import json
import os
import subprocess
import sys
import tempfile

BASE = {
    "host0.qnic.fw.stage.getWr": {"kind": "counter", "value": 12},
    "host0.qnic.fw.stage.putData": {"kind": "counter", "value": 7},
    "host1.qnic.qp1.tcp.rtt": {"kind": "sample", "count": 2,
                               "total": 3.0, "mean": 1.5, "min": 1.0,
                               "max": 2.0},
    "fabric.link0.packetsSent": {"kind": "counter", "value": 40},
}


def run(tool, a, b, tmp):
    paths = []
    for name, dump in (("a.json", a), ("b.json", b)):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dump, f)
        paths.append(path)
    res = subprocess.run([sys.executable, tool, *paths],
                         capture_output=True, text=True, check=False)
    return res.returncode, res.stdout


def expect(cond, what, out):
    if not cond:
        print(f"FAIL: {what}\n--- output ---\n{out}")
        sys.exit(1)


def main():
    tool = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run(tool, BASE, dict(BASE), tmp)
        expect(code == 0, "identical dumps exit 0", out)
        expect("no difference: 4 paths" in out, "identical dumps say so",
               out)

        changed = dict(BASE)
        changed["host0.qnic.fw.stage.putData"] = {"kind": "counter",
                                                  "value": 8}
        code, out = run(tool, BASE, changed, tmp)
        expect(code == 1, "a changed counter exits 1", out)
        first = out.splitlines()[0].split()
        expect(first[:2] == ["changed", "host0.qnic.fw.stage.putData"],
               "the first line names the changed path", out)
        expect("value: 7 -> 8" in out, "the changed field is shown", out)
        expect("1 of 4 paths differ" in out, "only one path differs", out)

        moved = dict(BASE)
        del moved["fabric.link0.packetsSent"]
        moved["fabric.link1.packetsSent"] = {"kind": "counter", "value": 1}
        code, out = run(tool, BASE, moved, tmp)
        lines = [line.split()[:2] for line in out.splitlines()[:2]]
        expect(code == 1, "added and removed paths exit 1", out)
        expect(lines == [["removed", "fabric.link0.packetsSent"],
                         ["added", "fabric.link1.packetsSent"]],
               "removed and added paths are named in path order", out)
    print("ok")


if __name__ == "__main__":
    main()
