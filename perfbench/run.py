#!/usr/bin/env python3
"""Host-cost benchmark of the QPIP simulator.

Builds perfbench/ (which compiles ../src) into .bench_build/, runs one
workload for a fixed host time, checks its outputs, and prints every
metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics from untraced repetitions;
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics, a self-time table and the tracing overhead.

Other modes (run from the root of the repository):
  --selftest         show that one corrupted byte or one dropped
                     completion is counted as a failed operation
  --crosscheck       reproduce the committed BENCH_simspeed.json and
                     BENCH_qpscale.json rows with this benchmark's workloads
  --record-digest S  record the simulated outputs of seeds S (comma list)
                     in perfbench/model_digest.json
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qpip_perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ["sockets_bulk", "qpip_fanin", "qpip_stream", "fabric_shift"]
DEADLINE_S = 175.0
START = time.monotonic()

# Paper counterpart of a workload's simulated output, where one exists:
# Figure 4's IP/GigE ttcp bar (bench/fig4_throughput.cpp).
PAPER = {"sockets_bulk": ("sim_mb_per_s", 45.4, "Figure 4 IP/GigE ttcp")}


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def remaining():
    return DEADLINE_S - (time.monotonic() - START)


def build():
    """Configure once, then an incremental build of the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/: run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "qpip_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def run_binary(workload, seed, seconds, trace, size=0, inject="",
               min_reps=3, max_reps=1000, warmup=True, tag="run"):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-%s" % (workload, seed, tag))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--json", stem + ".json", "--min-reps", str(min_reps),
           "--max-reps", str(max_reps), "--warmup", str(int(warmup))]
    if trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    if size:
        cmd += ["--size", str(size)]
    if inject:
        cmd += ["--inject", inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, remaining()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    if proc.returncode != 0:
        fail("qpip_perfbench exited with %d" % proc.returncode)
    with open(stem + ".json") as f:
        data = json.load(f)
    data["trace_file"] = stem + ".trace.json" if trace else None
    return data


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def digest(model):
    text = json.dumps(model, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def evaluate(data):
    """Output checks over every repetition, warm-up included."""
    reps = data["reps"]
    attempted = sum(r["ops_attempted"] for r in reps)
    failed = sum(r["ops_attempted"] - r["ops_ok"] for r in reps)
    problems = []
    if any(not r["completed"] for r in reps):
        problems.append("a repetition did not complete")
    if failed:
        problems.append("%d of %d operations failed the payload, "
                        "length or order check" % (failed, attempted))
    models = {digest(r["model"]) for r in reps}
    if len(models) != 1:
        problems.append("simulated outputs differ between repetitions")
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def fast_quartile(values, higher_is_better=False):
    """The quartile on the fast side of a run's repetitions.

    Host time on a shared machine is bimodal: a repetition runs in a
    fast or a slow state, and the share of slow ones drifts from run to
    run. A run's median follows that share; the fast quartile follows
    the fast state, and so repeats far better between runs.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] if higher_is_better else q[0]


def end_to_end(data):
    reps = [r for r in data["reps"] if not r["warmup"] and not r["traced"]]
    return {
        "wall_s": fast_quartile([r["wall_s"] for r in reps]),
        "setup_s": fast_quartile([r["setup_s"] for r in reps]),
        "ops_per_s": fast_quartile([r["ops_completed"] / r["measure_s"]
                                    for r in reps if r["measure_s"] > 0],
                                   higher_is_better=True),
        "cpu_s": fast_quartile([r["cpu_s"] for r in reps]),
        "peak_rss_mb": data["peak_rss_mb"],
    }, len(reps)


def per_layer(data, failed, attempted):
    reps = data["reps"]
    traced = reps[data["median_traced_rep"] + sum(r["warmup"] for r in reps)]
    untraced = [r for r in reps if not r["warmup"] and not r["traced"]]
    tr = [r["wall_s"] for r in reps if r["traced"]]
    m = dict(traced["layer"])
    m["sim.engine.cpu_per_wall"] = median(
        [r["run_cpu_per_wall"] for r in untraced])
    m["bench.trace_overhead_frac"] = (
        median(tr) / median([r["wall_s"] for r in untraced]) - 1.0)
    m["ops_failed_frac"] = failed / attempted if attempted else 0.0
    return m, traced


def print_model(workload, data):
    model = data["reps"][0]["model"]
    print("simulated outputs (model.*, identical on every repetition):")
    for k in sorted(model):
        print("  model.%-26s %.10g" % (k, model[k]))
    if workload in PAPER:
        key, ref, what = PAPER[workload]
        err = (model[key] - ref) / ref * 100.0
        print("  model.%s vs paper %s %.1f MB/s: error %+.1f%%"
              % (key, what, ref, err))
    else:
        print("  no paper counterpart: these outputs are unvalidated")
    want = load_json("model_digest.json").get(workload, {}).get(
        str(data["seed"]))
    got = digest(model)
    state = ("no recorded digest for this seed" if want is None else
             "matches the recorded digest" if want == got else
             "DIFFERS from the recorded digest %s" % want)
    print("  model digest %s: %s (information only)" % (got, state))
    return {"model": {"model." + k: v for k, v in model.items()},
            "model_digest": got}


def print_metrics(title, metrics, spec):
    print(title)
    for k, v in metrics.items():
        print("  %-36s %16.6g %-8s %s" % (k, v, spec[k]["unit"],
                                          spec[k]["kind"]))


def print_self_table(traced, overhead):
    print("self time of the median traced repetition (host seconds):")
    rows = sorted(traced["self"].items(), key=lambda kv: -kv[1])
    total = sum(v for _, v in rows)
    for layer, sec in rows:
        share = sec / total * 100.0 if total else 0.0
        print("  %-12s %10.6f  %5.1f%%" % (layer, sec, share))
    print("  %-12s %10.6f  (the traced repetition's wall time: %.6f)" % (
        "sum", total, traced["traced_root_s"]))
    print("  tracing overhead: traced wall_s is %+.1f%% of untraced"
          % (overhead * 100.0))


def main_run(args):
    build()
    data = run_binary(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed, problems = evaluate(data)
    spec = load_json("metrics.json")
    print("workload %s, seed %d, %d %s per repetition, %d engine thread(s)"
          % (data["workload"], data["seed"], data["size"], data["size_unit"],
             data["threads"]))
    extra = print_model(args.workload, data)
    e2e, n = end_to_end(data)
    print("%d untraced repetitions; host times are their fast quartile"
          % n)
    if args.trace:
        # The untraced repetitions of a traced run, for context only:
        # the end-to-end metrics come from runs with --trace 0.
        print_metrics("end-to-end (untraced repetitions of this run):",
                      e2e, spec)
        metrics, traced = per_layer(data, failed, attempted)
        group = "per_layer"
        print_self_table(traced, metrics["bench.trace_overhead_frac"])
        if data["trace_file"]:
            print("spans: %s" % os.path.relpath(data["trace_file"], ROOT))
    else:
        metrics, group = e2e, "end_to_end"
    names = [k for k in spec if spec[k]["group"] == group]
    metrics = {k: metrics[k] for k in names}
    print_metrics("metrics:", metrics, spec)
    print("ops_failed_frac %.6g (%d of %d operations)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    for p in problems:
        print("OUTPUT CHECK FAILED: " + p)
    print(json.dumps(extra, sort_keys=True))
    units = {k: spec[k]["unit"] for k in names}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


SELFTEST_SIZE = {"sockets_bulk": 4, "qpip_fanin": 512, "qpip_stream": 1024,
                 "fabric_shift": 32}


def main_selftest():
    build()
    ok = True
    for w in WORKLOADS:
        for inject in ["", "corrupt", "drop"]:
            data = run_binary(w, 1, 0, False, size=SELFTEST_SIZE[w],
                              inject=inject, min_reps=1, max_reps=1,
                              warmup=False, tag="selftest" + inject)
            attempted, failed, problems = evaluate(data)
            want_fail = bool(inject)
            good = (failed > 0 and bool(problems)) if want_fail else (
                failed == 0 and not problems)
            ok = ok and good
            print("%-13s %-8s failed %d of %d: %s" % (
                w, inject or "clean", failed, attempted,
                "ok" if good else "SELF-TEST FAILED"))
    return 0 if ok else 1


def main_crosscheck():
    build()
    ok = True
    with open(os.path.join(ROOT, "BENCH_simspeed.json")) as f:
        simspeed = {w["name"]: w for w in json.load(f)["workloads"]}
    with open(os.path.join(ROOT, "BENCH_qpscale.json")) as f:
        qpscale = [p for p in json.load(f)["points"]
                   if p["transport"] == "rc" and p["qps"] == 4096][0]
    row = simspeed["ttcp_sockets_gige"]
    mb = row["simBytes"] >> 20
    m = run_binary("sockets_bulk", 1, 0, False, size=mb, min_reps=1,
                   max_reps=1, warmup=False, tag="crosscheck")
    model = m["reps"][0]["model"]
    checks = [("sockets_bulk events", model["events"], row["events"]),
              ("sockets_bulk simTicks", model["sim_ticks"],
               row["simTicks"])]
    f = run_binary("qpip_fanin", 1, 0, False, size=qpscale["messages"],
                   min_reps=1, max_reps=1, warmup=False, tag="crosscheck")
    model = f["reps"][0]["model"]
    checks += [
        ("qpip_fanin simTicks", model["sim_ticks"], qpscale["simTicks"]),
        ("qpip_fanin completionsPerSimSec",
         round(model["completions_per_sim_s"]),
         qpscale["completionsPerSimSec"]),
        ("qpip_fanin tx misses", model["tx_ctx_misses"],
         qpscale["txCtx"]["misses"]),
        ("qpip_fanin rx misses", model["rx_ctx_misses"],
         qpscale["rxCtx"]["misses"]),
    ]
    for what, got, want in checks:
        same = got == want
        ok = ok and same
        print("%-34s %18.0f record %18.0f %s" % (
            what, got, want, "same" if same else "DIFFERENT"))
    for d in (m, f):
        if evaluate(d)[2]:
            ok = False
            print("output check failed on %s" % d["workload"])
    return 0 if ok else 1


def main_record(seeds):
    build()
    table = {}
    for w in WORKLOADS:
        table[w] = {}
        for s in seeds:
            data = run_binary(w, s, 0, False, min_reps=1, max_reps=1,
                              warmup=False, tag="digest")
            if evaluate(data)[2]:
                fail("output check failed on %s seed %d" % (w, s))
            table[w][str(s)] = digest(data["reps"][0]["model"])
    with open(os.path.join(HERE, "model_digest.json"), "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--crosscheck", action="store_true")
    p.add_argument("--record-digest", metavar="SEEDS")
    args = p.parse_args()
    if args.selftest:
        return main_selftest()
    if args.crosscheck:
        return main_crosscheck()
    if args.record_digest:
        return main_record([int(s) for s in args.record_digest.split(",")])
    if not args.workload:
        p.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
