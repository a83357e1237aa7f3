/**
 * @file
 * qpip_perfbench: runs one workload repeatedly for a fixed host time
 * and writes every repetition's host-time phases, simulated outputs
 * and (for traced repetitions) per-layer spans and counts as JSON.
 * perfbench/run.py builds this binary, drives it, and turns the
 * repetitions into the benchmark's metrics; see perfbench/README.md.
 *
 *   qpip_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --json OUT.json [--trace-out OUT.trace.json]
 *                  [--size N] [--inject corrupt|drop]
 *                  [--min-reps N] [--max-reps N] [--warmup 0|1]
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sim/types.hh"
#include "span_trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string json;
    std::string traceOut;
    std::uint64_t size = 0;
    std::string inject;
    int minReps = 3;
    int maxReps = 1000;
    bool warmup = true;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "qpip_perfbench: %s\n", why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::atof(v);
        else if (k == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (k == "--json")
            o.json = v;
        else if (k == "--trace-out")
            o.traceOut = v;
        else if (k == "--size")
            o.size = std::strtoull(v, nullptr, 10);
        else if (k == "--inject")
            o.inject = v;
        else if (k == "--min-reps")
            o.minReps = std::max(1, std::atoi(v));
        else if (k == "--max-reps")
            o.maxReps = std::max(1, std::atoi(v));
        else if (k == "--warmup")
            o.warmup = std::atoi(v) != 0;
        else
            usage(("unknown option " + k).c_str());
    }
    if (o.json.empty())
        usage("--json is required");
    return o;
}

/** Nearest-rank percentile of @p v (0 when empty). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
seconds(const Stamp &a, const Stamp &b)
{
    return static_cast<double>(b.wallNs - a.wallNs) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

const std::vector<std::string> postSpans = {
    "qpip.postSend",     "qpip.postSendList", "qpip.postWrite",
    "qpip.postRead",     "qpip.postRecv",     "qpip.postRecvList"};

/**
 * The per-layer metrics of one traced repetition. Registry counts
 * cover the whole repetition (set-up and measured phase); the
 * per-operation and per-event ratios use the measured phase only.
 */
std::map<std::string, double>
layerMetrics(const RepResult &r, const SpanReport &sp)
{
    const auto &c = r.counts;
    const auto get = [&](const char *k) {
        const auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    const double events = get("sim.events");
    const double measureEvents = get("sim.measure_events");
    const double simS = get("sim.sim_s");
    const double epochs = get("sim.engine.epochs");
    const double simSelf = sp.selfSeconds[static_cast<int>(Layer::Sim)];

    std::map<std::string, double> m;
    m["sim.events"] = events;
    m["sim.events_per_op"] =
        ratio(measureEvents, static_cast<double>(r.opsAttempted));
    m["sim.sim_s"] = simS;
    m["sim.ns_per_event"] = ratio(simSelf * 1e9, events);
    m["sim.run_self_s"] = simSelf;
    m["sim.allocs_per_event"] = ratio(
        static_cast<double>(r.measureDone.allocs - r.setupDone.allocs),
        measureEvents);
    m["apps.setup_allocs"] =
        static_cast<double>(r.setupDone.allocs - r.start.allocs);
    m["sim.engine.setup_s"] =
        sp.inclusiveSeconds("sim.engine.enableParallel");
    m["sim.engine.epochs"] = epochs;
    m["sim.engine.events_per_epoch"] = ratio(events, epochs);
    m["sim.engine.epochs_per_sim_ms"] = ratio(epochs, simS * 1e3);
    m["sim.engine.mailbox_posts"] = get("sim.engine.mailbox_posts");
    m["sim.engine.horizon_stalls"] = get("sim.engine.horizon_stalls");
    m["sim.engine.partition_imbalance"] =
        get("sim.engine.partition_imbalance");
    m["net.packets"] = get("net.packets");
    m["net.bytes_per_packet"] = ratio(get("net.bytes"), get("net.packets"));
    m["net.switch_forwards"] = get("net.switch_forwards");
    m["net.drops"] = get("net.drops");
    m["inet.segs_out"] = get("inet.segs_out");
    m["inet.retransmits"] = get("inet.retransmits");
    m["inet.hdr_predicted_frac"] =
        ratio(get("inet.hdr_predicted"), get("inet.segs_in"));
    m["host.call_self_s"] = sp.selfSeconds[static_cast<int>(Layer::Host)];
    const auto sendNs = sp.durationsNs({"host.sendAll"});
    m["host.send_call_ns.p50"] = percentile(sendNs, 50);
    m["host.send_call_ns.p99"] = percentile(sendNs, 99);
    m["host.pkts_in"] = get("host.pkts_in");
    m["host.pkts_out"] = get("host.pkts_out");
    m["nic.eth.interrupts"] = get("nic.eth.interrupts");
    const double hits = get("nic.qp_cache.hits");
    const double misses = get("nic.qp_cache.misses");
    m["nic.qp_cache.hit_ratio"] = ratio(hits, hits + misses);
    m["nic.qp_cache.misses"] = misses;
    m["nic.qp_cache.writebacks"] = get("nic.qp_cache.writebacks");
    m["nic.srq.rnr_holds"] = get("nic.srq.rnr_holds");
    for (const char *st : {"doorbellProcess", "getWr", "schedule",
                           "ctxFetch", "putData", "rudExec"}) {
        const std::string k = std::string("nic.fw_stage_count.") + st;
        m[k] = get(k.c_str());
    }
    m["nic.fw_busy_frac"] =
        ratio(get("nic.fw_busy_ticks_max"),
              simS * static_cast<double>(qpip::sim::oneSec));
    const double rings = get("nic.doorbell.rings");
    m["nic.doorbell.rings"] = rings;
    m["nic.doorbell.wrs_per_ring"] = ratio(get("qpip.wrs_posted"), rings);
    m["nic.doorbell.coalesced"] = get("nic.doorbell.coalesced");
    m["nic.cq.notifies"] = get("nic.cq.notifies");
    m["nic.cq.coalesced"] = get("nic.cq.coalesced");
    m["nic.rud.retransmits"] = get("nic.rud.retransmits");
    m["nic.rud.acks_sent"] = get("nic.rud.acks_sent");
    m["qpip.setup_s"] = sp.inclusiveSeconds("qpip.setup");
    const auto postNs = sp.durationsNs(postSpans);
    m["qpip.post_ns.p50"] = percentile(postNs, 50);
    m["qpip.post_ns.p99"] = percentile(postNs, 99);
    double postSelf = 0.0, callbackSelf = 0.0;
    for (const auto &s : sp.spans) {
        if (std::find(postSpans.begin(), postSpans.end(), s.name) !=
            postSpans.end())
            postSelf += s.selfSeconds;
        if (std::strcmp(s.name, "bench.callback") == 0)
            callbackSelf += s.selfSeconds;
    }
    m["qpip.post_self_s"] = postSelf;
    m["qpip.post_failures"] = get("qpip.post_failures");
    m["apps.build_s"] = sp.inclusiveSeconds("apps.build");
    m["apps.teardown_s"] = sp.inclusiveSeconds("apps.teardown");
    m["bench.callback_self_s"] = callbackSelf;
    return m;
}

void
writeMap(std::FILE *f, const char *key,
         const std::map<std::string, double> &m)
{
    std::fprintf(f, ", \"%s\": {", key);
    const char *sep = "";
    for (const auto &[k, v] : m) {
        std::fprintf(f, "%s\"%s\": %.17g", sep, k.c_str(), v);
        sep = ", ";
    }
    std::fprintf(f, "}");
}

/**
 * Peak resident memory of this process image. VmHWM starts afresh at
 * exec, unlike getrusage's ru_maxrss, which keeps the high-water mark
 * of the process that forked us.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::atof(line + 6);
    }
    std::fclose(f);
    return kb / 1024.0;
}

/**
 * The CPUs this process may run on. A serial workload moves to the
 * next one before each repetition, so a run samples every core
 * instead of whichever one the scheduler happened to keep it on:
 * on a shared host one core can run slow for tens of seconds.
 */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

struct Rep
{
    bool traced = false;
    RepResult r;
    SpanReport spans;
    std::map<std::string, double> layer;
};

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    const Workload *w = findWorkload(o.workload);
    if (w == nullptr)
        usage(("unknown workload " + o.workload).c_str());

    Inject inject;
    if (o.inject == "corrupt")
        inject.kind = Inject::Kind::CorruptByte;
    else if (o.inject == "drop")
        inject.kind = Inject::Kind::DropCompletion;
    else if (!o.inject.empty())
        usage("--inject takes corrupt or drop");

    const Pattern pattern(o.seed, (std::size_t(1) << 20) + 4093);
    WorkloadArgs args;
    args.seed = o.seed;
    args.size = o.size != 0 ? o.size : w->defaultSize;
    args.threads = std::clamp(
        w->threads, 1,
        std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    args.pattern = &pattern;
    args.inject = inject.kind == Inject::Kind::None ? nullptr : &inject;

    const std::vector<int> cpus = allowedCpus();
    std::size_t repCount = 0;
    const auto runOne = [&](bool traced) {
        if (args.threads == 1 && cpus.size() > 1)
            pinTo(cpus[repCount % cpus.size()]);
        ++repCount;
        Rep rep;
        rep.traced = traced;
        WorkloadArgs a = args;
        a.traced = traced;
        if (traced) {
            SpanRecorder::begin(a.threads);
            AllocCounter::enable(true);
        }
        rep.r = w->run(a);
        if (traced) {
            AllocCounter::enable(false);
            SpanRecorder::end();
            rep.spans = analyseSpans();
            rep.layer = layerMetrics(rep.r, rep.spans);
        }
        return rep;
    };

    // Warm-up: fills the allocator and page cache; it is checked but
    // not reported, and it counts toward the run's host-time budget.
    const std::int64_t t0 = nowNs();
    std::vector<Rep> warm;
    if (o.warmup)
        warm.push_back(runOne(false));

    std::vector<Rep> reps;
    for (int i = 0; static_cast<int>(reps.size()) < o.maxReps; ++i) {
        const double elapsed = static_cast<double>(nowNs() - t0) * 1e-9;
        const bool enough = static_cast<int>(reps.size()) >= o.minReps &&
                            (!o.trace || reps.size() >= 2);
        if (elapsed >= o.seconds && enough)
            break;
        reps.push_back(runOne(o.trace && i % 2 == 1));
    }

    // The traced repetition with the median wall time stands for the
    // run: its spans go to the trace file and its layer metrics out.
    std::vector<std::size_t> tracedIdx;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        if (reps[i].traced)
            tracedIdx.push_back(i);
    }
    std::sort(tracedIdx.begin(), tracedIdx.end(),
              [&](std::size_t a, std::size_t b) {
                  return seconds(reps[a].r.start, reps[a].r.end) <
                         seconds(reps[b].r.start, reps[b].r.end);
              });
    const long medianTraced =
        tracedIdx.empty()
            ? -1
            : static_cast<long>(tracedIdx[(tracedIdx.size() - 1) / 2]);
    if (medianTraced >= 0 && !o.traceOut.empty() &&
        !writeChromeTrace(reps[static_cast<std::size_t>(medianTraced)].spans,
                          o.traceOut)) {
        std::fprintf(stderr, "cannot write %s\n", o.traceOut.c_str());
        return 2;
    }

    std::FILE *f = std::fopen(o.json.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", o.json.c_str());
        return 2;
    }
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"size\": %llu, "
                 "\"size_unit\": \"%s\", \"threads\": %d, "
                 "\"peak_rss_mb\": %.6f, \"median_traced_rep\": %ld, "
                 "\"reps\": [",
                 w->name, static_cast<unsigned long long>(o.seed),
                 static_cast<unsigned long long>(args.size), w->sizeUnit,
                 args.threads, peakRssMb(),
                 medianTraced);
    const char *sep = "\n";
    const auto emit = [&](const Rep &rep, bool warmup) {
        const RepResult &r = rep.r;
        std::fprintf(
            f,
            "%s{\"warmup\": %s, \"traced\": %s, \"completed\": %s, "
            "\"wall_s\": %.9f, \"setup_s\": %.9f, \"measure_s\": %.9f, "
            "\"teardown_s\": %.9f, \"cpu_s\": %.6f, "
            "\"run_cpu_per_wall\": %.6f, \"ops_attempted\": %llu, "
            "\"ops_completed\": %llu, \"ops_ok\": %llu",
            sep, warmup ? "true" : "false", rep.traced ? "true" : "false",
            r.completed ? "true" : "false", seconds(r.start, r.end),
            seconds(r.start, r.setupDone),
            seconds(r.setupDone, r.measureDone),
            seconds(r.measureDone, r.end),
            r.end.cpuSeconds - r.start.cpuSeconds,
            ratio(r.measureDone.cpuSeconds - r.setupDone.cpuSeconds,
                  seconds(r.setupDone, r.measureDone)),
            static_cast<unsigned long long>(r.opsAttempted),
            static_cast<unsigned long long>(r.opsCompleted),
            static_cast<unsigned long long>(r.opsOk));
        writeMap(f, "model", r.model);
        if (rep.traced) {
            writeMap(f, "layer", rep.layer);
            std::map<std::string, double> self;
            for (int l = 0; l < numLayers; ++l)
                self[layerName(static_cast<Layer>(l))] =
                    rep.spans.selfSeconds[l];
            writeMap(f, "self", self);
            std::fprintf(f, ", \"traced_root_s\": %.9f",
                         rep.spans.rootSeconds);
        }
        std::fprintf(f, "}");
        sep = ",\n";
    };
    for (const auto &rep : warm)
        emit(rep, true);
    for (const auto &rep : reps)
        emit(rep, false);
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "cannot write %s\n", o.json.c_str());
        return 2;
    }
    return 0;
}
