#!/usr/bin/env python3
"""Diff two stat-registry JSON dumps path by path.

  python3 tools/qpip_statdiff.py A.json B.json

A and B are StatRegistry::jsonDump() outputs (for example
`examples/quickstart --stats=FILE`): one flat object keyed by dotted
stat path, each value an object with "kind" plus the kind's fields.
The first 20 diverging paths are printed in path order, each marked
added (only in B), removed (only in A) or changed (the fields that
differ, A -> B), followed by a one-line count. Serial and partitioned
runs of one model, or two builds of the simulator, should dump the
same registry; this names where they part.

Exit status 0 when the dumps are identical, 1 on any difference, 2 on
bad usage or a file that is not a JSON object.
"""

import json
import sys

SHOWN = 20


def load(path):
    with open(path, encoding="utf-8") as f:
        dump = json.load(f)
    if not isinstance(dump, dict):
        raise ValueError(f"{path}: not a JSON object")
    return dump


def show(value):
    return json.dumps(value, sort_keys=True)


def field_changes(a, b):
    """'field: a -> b' for every field that differs between two stats."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [f"{show(a)} -> {show(b)}"]
    out = []
    for field in sorted(a.keys() | b.keys()):
        va, vb = a.get(field), b.get(field)
        if va == vb:
            continue
        if isinstance(va, list) and isinstance(vb, list) and \
                len(va) == len(vb):
            first = next(i for i, (x, y) in enumerate(zip(va, vb))
                         if x != y)
            out.append(f"{field}[{first}]: {show(va[first])} -> "
                       f"{show(vb[first])}")
        else:
            out.append(f"{field}: {show(va)} -> {show(vb)}")
    return out


def diff(a, b):
    """(kind, path, detail) for every diverging path, in path order."""
    out = []
    for path in sorted(a.keys() | b.keys()):
        if path not in a:
            out.append(("added", path, show(b[path])))
        elif path not in b:
            out.append(("removed", path, show(a[path])))
        elif a[path] != b[path]:
            out.append(("changed", path,
                        "; ".join(field_changes(a[path], b[path]))))
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        a, b = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as e:
        print(f"qpip_statdiff: {e}", file=sys.stderr)
        return 2

    diverging = diff(a, b)
    for kind, path, detail in diverging[:SHOWN]:
        print(f"{kind:8} {path}  {detail}")
    if not diverging:
        print(f"no difference: {len(a)} paths")
        return 0
    counts = {k: sum(1 for d in diverging if d[0] == k)
              for k in ("added", "removed", "changed")}
    shown = min(SHOWN, len(diverging))
    print(f"{len(diverging)} of {len(a.keys() | b.keys())} paths differ "
          f"({counts['added']} added, {counts['removed']} removed, "
          f"{counts['changed']} changed); first {shown} shown")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
