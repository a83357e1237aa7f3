#!/usr/bin/env python3
"""Fail when qpip_fanin's connection setup allocates too much per QP.

  python3 perfbench/run.py --workload qpip_fanin --seed 1 --seconds 1 \\
      --trace 1 > fanin.out
  python3 tools/check_setup_allocs.py fanin.out

The input is perfbench's standard output; its last line is the result
JSON. With --trace 1 it carries apps.setup_allocs, the heap allocations
a traced repetition makes while building the testbed and connecting
its QPs. That count is deterministic, so it gates where wall time
cannot.

qpip_fanin connects 4096 RC QPs, each with an endpoint on both NICs.
The bound is 15 allocations per endpoint (122,880). Setup makes 13.4
(110,014 with GCC 12's libstdc++). An empty std::deque allocates twice
when constructed, so one more of them in per-endpoint state adds 2 per
endpoint and fails the check; the rest of the margin absorbs small
differences between standard libraries.
Exit status 1 when over the bound or the metric is missing, 2 on bad
usage.
"""

import json
import sys

QPS = 4096
ENDPOINTS = 2 * QPS
ALLOCS_PER_ENDPOINT = 15
BOUND = ALLOCS_PER_ENDPOINT * ENDPOINTS


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        print("check_setup_allocs: %s is empty" % argv[1])
        return 1
    result = json.loads(lines[-1])
    metric = result.get("metrics", {}).get("apps.setup_allocs")
    if metric is None:
        print("check_setup_allocs: no apps.setup_allocs in the result "
              "(run perfbench with --trace 1)")
        return 1
    allocs = metric["value"]
    verdict = "ok" if allocs <= BOUND else "FAIL"
    print("apps.setup_allocs %d, bound %d (%d per endpoint x %d "
          "endpoints), %.2f per endpoint: %s"
          % (allocs, BOUND, ALLOCS_PER_ENDPOINT, ENDPOINTS,
             allocs / ENDPOINTS, verdict))
    return 0 if allocs <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
