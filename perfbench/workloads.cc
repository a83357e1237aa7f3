#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "apps/testbed.hh"
#include "apps/ttcp.hh"
#include "apps/verbs_util.hh"
#include "host/host_stack.hh"
#include "host/socket.hh"
#include "span_trace.hh"

namespace perfbench {

using namespace qpip;
using apps::QpipTestbed;
using apps::SocketsTestbed;
using host::TcpSocket;
using sim::Tick;

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

Pattern::Pattern(std::uint64_t seed, std::size_t bytes)
    : size_(bytes), bytes_(bytes)
{
    // splitmix64: a fixed, portable byte stream per seed.
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < bytes; i += 8) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        for (std::size_t k = 0; k < 8 && i + k < bytes; ++k)
            bytes_[i + k] = static_cast<std::uint8_t>(z >> (8 * k));
    }
}

void
Pattern::fill(std::uint64_t off, std::uint8_t *dst, std::size_t len) const
{
    while (len > 0) {
        const std::size_t at = static_cast<std::size_t>(off % size_);
        const std::size_t n = std::min(len, size_ - at);
        std::memcpy(dst, bytes_.data() + at, n);
        dst += n;
        off += n;
        len -= n;
    }
}

bool
Pattern::matches(std::uint64_t off, const std::uint8_t *data,
                 std::size_t len) const
{
    while (len > 0) {
        const std::size_t at = static_cast<std::size_t>(off % size_);
        const std::size_t n = std::min(len, size_ - at);
        if (std::memcmp(data, bytes_.data() + at, n) != 0)
            return false;
        data += n;
        off += n;
        len -= n;
    }
    return true;
}

Stamp
stamp()
{
    Stamp s;
    s.wallNs = nowNs();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    s.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
                   static_cast<double>(ru.ru_utime.tv_usec) * 1e-6 +
                   static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    s.allocs = AllocCounter::count();
    return s;
}

namespace {

constexpr std::uint16_t ttcpPort = 5001;
constexpr std::size_t writeBytes = 16384;
constexpr Tick connectDeadline = 600 * sim::oneSec;
constexpr Tick runDeadline = 36000 * sim::oneSec;

/** Simulation::runUntilCondition inside a Sim span. */
template <typename Pred>
bool
runSim(sim::Simulation &sim, Pred pred, Tick deadline)
{
    Span s("sim.runUntilCondition", Layer::Sim);
    return sim.runUntilCondition(std::move(pred), deadline);
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Firmware stages whose sample counts the benchmark reports. */
constexpr const char *fwStages[] = {"doorbellProcess", "getWr",
                                    "schedule",        "ctxFetch",
                                    "putData",         "rudExec"};

/**
 * The per-layer count a registry path feeds, or "" for none. Paths
 * are matched by their leaf names, so the sums cover every host, NIC,
 * link and switch of the testbed.
 */
std::string
layerKey(const std::string &path)
{
    if (path.rfind("fabric.", 0) == 0) {
        if (endsWith(path, ".packetsSent"))
            return "net.packets";
        if (endsWith(path, ".bytesSent"))
            return "net.bytes";
        if (endsWith(path, ".forwarded"))
            return "net.switch_forwards";
        if (endsWith(path, ".queueDrops") ||
            endsWith(path, ".oversizeDrops") ||
            endsWith(path, ".faults.drops") ||
            endsWith(path, ".unroutableDrops"))
            return "net.drops";
        return "";
    }
    if (path.find(".tcp.") != std::string::npos) {
        if (endsWith(path, ".segsOut"))
            return "inet.segs_out";
        if (endsWith(path, ".segsIn"))
            return "inet.segs_in";
        if (endsWith(path, ".retransmits"))
            return "inet.retransmits";
        if (endsWith(path, ".hdrPredicted"))
            return "inet.hdr_predicted";
        return "";
    }
    if (endsWith(path, ".stack.pktsIn"))
        return "host.pkts_in";
    if (endsWith(path, ".stack.pktsOut"))
        return "host.pkts_out";
    if (endsWith(path, ".nic.interrupts"))
        return "nic.eth.interrupts";
    if (path.find(".qnic.") != std::string::npos) {
        static const std::pair<const char *, const char *> leaves[] = {
            {".qpCache.hits", "nic.qp_cache.hits"},
            {".qpCache.misses", "nic.qp_cache.misses"},
            {".qpCache.writebacks", "nic.qp_cache.writebacks"},
            {".srq.rnrHolds", "nic.srq.rnr_holds"},
            {".fw.busyTicks", "nic.fw_busy_ticks_max"},
            {".doorbells.rings", "nic.doorbell.rings"},
            {".doorbells.coalesced", "nic.doorbell.coalesced"},
            {".cq.notifies", "nic.cq.notifies"},
            {".cq.coalesced", "nic.cq.coalesced"},
            {".rud.retransmits", "nic.rud.retransmits"},
            {".rud.acksSent", "nic.rud.acks_sent"},
        };
        for (const auto &[leaf, key] : leaves) {
            if (endsWith(path, leaf))
                return key;
        }
        for (const char *st : fwStages) {
            if (endsWith(path, (std::string(".fw.stage.") + st).c_str()))
                return std::string("nic.fw_stage_count.") + st;
        }
        return "";
    }
    if (path == "parallel.epochs")
        return "sim.engine.epochs";
    if (path == "parallel.mailboxPosts")
        return "sim.engine.mailbox_posts";
    if (path == "parallel.horizonStalls")
        return "sim.engine.horizon_stalls";
    return "";
}

/**
 * Sum the registry into per-layer counts: counter values, and sample
 * counts for the firmware stages. Firmware busy ticks take the
 * busiest NIC rather than the sum.
 */
std::map<std::string, double>
layerCounts(const sim::StatRegistry &stats)
{
    std::map<std::string, double> c;
    for (const char *k :
         {"net.packets", "net.bytes", "net.switch_forwards", "net.drops",
          "inet.segs_out", "inet.segs_in", "inet.retransmits",
          "inet.hdr_predicted", "host.pkts_in", "host.pkts_out",
          "nic.eth.interrupts", "nic.qp_cache.hits",
          "nic.qp_cache.misses", "nic.qp_cache.writebacks",
          "nic.srq.rnr_holds", "nic.fw_busy_ticks_max",
          "nic.doorbell.rings", "nic.doorbell.coalesced",
          "nic.cq.notifies", "nic.cq.coalesced", "nic.rud.retransmits",
          "nic.rud.acks_sent", "sim.engine.epochs",
          "sim.engine.mailbox_posts", "sim.engine.horizon_stalls"})
        c[k] = 0.0;
    for (const char *st : fwStages)
        c[std::string("nic.fw_stage_count.") + st] = 0.0;

    for (const auto &path : stats.match("*")) {
        const std::string key = layerKey(path);
        if (key.empty())
            continue;
        double v = 0.0;
        if (const auto *ctr = stats.counter(path))
            v = static_cast<double>(ctr->value());
        else if (const auto *smp = stats.sample(path))
            v = static_cast<double>(smp->count());
        if (key == "nic.fw_busy_ticks_max")
            c[key] = std::max(c[key], v);
        else
            c[key] += v;
    }
    return c;
}

/**
 * Phase stamps of one repetition, and for a traced one the registry's
 * counts at the end of the measured phase. Events and simulated time
 * are read from the engine when the testbed has one.
 */
template <typename Bed>
class Probe
{
  public:
    Probe(RepResult &r, bool traced) : r_(r), traced_(traced)
    {
        r_.start = stamp();
    }

    void
    setupDone(Bed &bed)
    {
        r_.setupDone = stamp();
        events0_ = executed(bed);
        ticks0_ = bed.sim().now();
    }

    /** Simulated ticks of the measured phase so far. */
    Tick measuredTicks(Bed &bed) const { return bed.sim().now() - ticks0_; }

    void
    measureDone(Bed &bed)
    {
        r_.measureDone = stamp();
        const std::uint64_t events = executed(bed);
        r_.model["events"] = static_cast<double>(events);
        if (!traced_)
            return;
        // One registry walk, after the measured phase: its cost shows
        // as bench self time in traced repetitions only.
        Span s("bench.snapshot", Layer::Bench);
        r_.counts = layerCounts(bed.sim().stats());
        r_.counts["sim.events"] = static_cast<double>(events);
        r_.counts["sim.measure_events"] =
            static_cast<double>(events - events0_);
        r_.counts["sim.sim_s"] = sim::ticksToSec(bed.sim().now());
        double imbalance = 0.0;
        if (auto *eng = bed.engine(); eng != nullptr) {
            double sum = 0.0, mx = 0.0;
            for (std::size_t i = 0; i < eng->numPartitions(); ++i) {
                const auto n = static_cast<double>(
                    eng->partition(i).eventQueue().executed());
                sum += n;
                mx = std::max(mx, n);
            }
            if (sum > 0.0)
                imbalance = mx * static_cast<double>(eng->numPartitions()) /
                            sum;
        }
        r_.counts["sim.engine.partition_imbalance"] = imbalance;
    }

  private:
    static std::uint64_t
    executed(Bed &bed)
    {
        return bed.engine() != nullptr ? bed.engine()->executed()
                                       : bed.sim().eventQueue().executed();
    }

    RepResult &r_;
    bool traced_;
    std::uint64_t events0_ = 0;
    Tick ticks0_ = 0;
};

/**
 * Checks one byte stream written in fixed-size writes: every
 * delivered range is compared with the seeded pattern, and a write
 * counts as good only when all of its bytes arrived intact and in
 * stream order.
 */
class StreamCheck
{
  public:
    StreamCheck(const Pattern &pattern, std::uint64_t base,
                std::uint64_t total, Inject *inject)
        : pattern_(pattern), base_(base), total_(total),
          inject_(inject),
          goodBytes_((total + writeBytes - 1) / writeBytes, 0),
          bad_(goodBytes_.size(), 0)
    {}

    /** The delivered bytes at stream offset @p off. */
    void
    deliver(std::uint64_t off, std::vector<std::uint8_t> &d)
    {
        if (inject_ != nullptr) {
            inject_->corrupt(d.data(), d.size());
            if (inject_->drop())
                return;
        }
        const std::uint64_t end = std::min(off + d.size(), total_);
        for (std::uint64_t w = off / writeBytes;
             w * writeBytes < end; ++w) {
            const std::uint64_t lo = std::max(off, w * writeBytes);
            const std::uint64_t hi = std::min(end, (w + 1) * writeBytes);
            if (pattern_.matches(base_ + lo, d.data() + (lo - off),
                                 static_cast<std::size_t>(hi - lo)))
                goodBytes_[w] += static_cast<std::uint32_t>(hi - lo);
            else
                bad_[w] = 1;
        }
        if (off + d.size() > total_)
            overrun_ = true;
    }

    std::uint64_t writes() const { return goodBytes_.size(); }

    /** Writes whose last byte is within the first @p delivered bytes. */
    std::uint64_t
    completedWrites(std::uint64_t delivered) const
    {
        return delivered >= total_ ? writes() : delivered / writeBytes;
    }

    /** Writes whose every byte arrived intact. */
    std::uint64_t
    goodWrites() const
    {
        std::uint64_t n = 0;
        for (std::size_t w = 0; w < goodBytes_.size(); ++w) {
            const std::uint64_t len =
                std::min<std::uint64_t>(writeBytes,
                                        total_ - w * writeBytes);
            n += (bad_[w] == 0 && goodBytes_[w] == len && !overrun_)
                     ? 1
                     : 0;
        }
        return n;
    }

  private:
    const Pattern &pattern_;
    std::uint64_t base_;
    std::uint64_t total_;
    Inject *inject_;
    std::vector<std::uint32_t> goodBytes_;
    std::vector<std::uint8_t> bad_;
    bool overrun_ = false;
};

/** Count a verbs post that the layer refused. */
bool
countPost(bool ok, std::uint64_t &failures)
{
    if (!ok)
        ++failures;
    return ok;
}

// ---------------------------------------------------------------------
// sockets_bulk: one ttcp-style transfer over IP/GigE
// ---------------------------------------------------------------------

/**
 * The same socket calls, in the same order, as apps::runSocketsTtcp,
 * so the simulated run is the one bench_simspeed records as
 * ttcp_sockets_gige. The writes carry the seeded pattern instead of
 * a constant and the receiver checks every byte.
 */
RepResult
runSocketsBulk(const WorkloadArgs &a)
{
    RepResult r;
    Span root("bench.rep", Layer::Bench);
    const std::uint64_t total = a.size << 20;
    const Pattern &pat = *a.pattern;
    Probe<SocketsTestbed> probe(r, a.traced);

    StreamCheck check(pat, 0, total, a.inject);
    std::uint64_t delivered = 0;
    std::uint64_t sent = 0;
    bool done = false;
    Tick tEnd = 0;
    std::shared_ptr<TcpSocket> rxSock, txSock;
    std::function<void(TcpSocket *)> drain;
    std::function<void()> pump;

    auto bed = traced("apps.build", Layer::Apps, [] {
        return std::make_unique<SocketsTestbed>(
            2, apps::SocketsFabric::GigabitEthernet);
    });
    auto &sim = bed->sim();
    auto cfg = bed->tcpConfig();
    cfg.noDelay = true; // ttcp -D

    drain = [&](TcpSocket *sock) {
        Span call("host.recv", Layer::Host);
        sock->recv(262144, [&, sock](std::vector<std::uint8_t> d) {
            Span cb("bench.callback", Layer::Bench);
            if (d.empty())
                return; // EOF
            check.deliver(delivered, d);
            delivered += d.size();
            if (delivered >= total) {
                tEnd = sim.now();
                done = true;
                return;
            }
            drain(sock);
        });
    };
    traced("host.tcpListen", Layer::Host, [&] {
        bed->host(1).stack().tcpListen(
            ttcpPort, cfg, [&](std::shared_ptr<TcpSocket> sock) {
                Span cb("bench.callback", Layer::Bench);
                rxSock = sock;
                drain(sock.get());
            });
    });
    txSock = traced("host.tcpConnect", Layer::Host, [&] {
        return bed->host(0).stack().tcpConnect(
            bed->addr(0, 30002), bed->addr(1, ttcpPort), cfg, nullptr);
    });
    const bool connected = runSim(
        sim, [&] { return txSock->connected(); },
        sim.now() + connectDeadline);
    probe.setupDone(*bed);

    const Tick t0 = sim.now();
    const Tick busyTx0 = bed->host(0).cpu().busyTotal();
    const Tick busyRx0 = bed->host(1).cpu().busyTotal();
    pump = [&] {
        Span cb("bench.callback", Layer::Bench);
        if (sent >= total)
            return;
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(writeBytes, total - sent));
        std::vector<std::uint8_t> buf(n);
        pat.fill(sent, buf.data(), n);
        sent += n;
        Span call("host.sendAll", Layer::Host);
        txSock->sendAll(std::move(buf), [&] { pump(); });
    };
    if (connected)
        pump();
    r.completed = connected &&
                  runSim(sim, [&] { return done; }, sim.now() + runDeadline);
    probe.measureDone(*bed);

    const Tick window = tEnd - t0;
    r.model["sim_ticks"] = static_cast<double>(sim.now());
    r.model["sim_mb_per_s"] =
        window > 0 ? static_cast<double>(total) / (1024.0 * 1024.0) /
                         sim::ticksToSec(window)
                   : 0.0;
    r.model["tx_cpu_util"] = host::CpuModel::utilization(
        bed->host(0).cpu().busyTotal() - busyTx0, window);
    r.model["rx_cpu_util"] = host::CpuModel::utilization(
        bed->host(1).cpu().busyTotal() - busyRx0, window);
    r.opsAttempted = check.writes();
    r.opsCompleted = check.completedWrites(delivered);
    r.opsOk = check.goodWrites();

    {
        Span t("apps.teardown", Layer::Apps);
        txSock.reset();
        rxSock.reset();
        bed.reset();
    }
    r.end = stamp();
    return r;
}

// ---------------------------------------------------------------------
// qpip_fanin: RC fan-in of 1-byte sends into one SRQ
// ---------------------------------------------------------------------

/**
 * The bench_qpscale rc/4096 configuration: one client host connects
 * 4096 RC QPs to a server that parks them all on one SRQ, and the
 * client sends 1-byte messages round-robin with 64 outstanding,
 * under the default 1024-entry QP-context cache. Message i carries
 * pattern byte i. The server groups what it receives by sending
 * connection, and the groups must equal, as a multiset, the
 * per-QP send sequences: that checks every byte, each connection's
 * order, and that nothing is lost or duplicated, without assuming
 * how the NIC numbers its connections.
 */
RepResult
runQpipFanin(const WorkloadArgs &a)
{
    constexpr std::size_t nQps = 4096;
    constexpr std::size_t cacheCapacity = 1024;
    constexpr std::size_t srqDepth = 256;
    constexpr std::size_t window = 64;

    RepResult r;
    Span root("bench.rep", Layer::Bench);
    const std::uint64_t messages = a.size;
    Probe<QpipTestbed> probe(r, a.traced);

    std::vector<std::uint8_t> rbuf(srqDepth), sbuf(messages);
    a.pattern->fill(0, sbuf.data(), sbuf.size());
    std::map<std::uint16_t, std::vector<std::uint8_t>> byConnection;
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps, clientQps;
    std::shared_ptr<verbs::CompletionQueue> scq, ccq;
    std::shared_ptr<verbs::SharedReceiveQueue> srq;
    std::shared_ptr<verbs::MemoryRegion> rmr, smr;
    std::unique_ptr<verbs::Acceptor> acc;
    std::uint64_t srqPosted = 0, received = 0, sent = 0;
    std::uint64_t postFailures = 0;
    std::size_t connected = 0, nextQp = 0;

    auto bed = traced("apps.build", Layer::Apps, [&] {
        nic::QpipNicParams params;
        params.qpCacheCapacity = cacheCapacity;
        return std::make_unique<QpipTestbed>(2, apps::qpipNativeMtu, 1,
                                             params);
    });
    auto &client = bed->provider(0);
    auto &server = bed->provider(1);
    auto &sim = bed->sim();

    bool ready = false;
    {
        Span setup("qpip.setup", Layer::Qpip);
        {
            Span call("qpip.createResources", Layer::Qpip);
            scq = server.createCq(1 << 16);
            ccq = client.createCq(1 << 16);
            srq = server.createSrq(1 << 16);
            rmr = server.registerMemory(rbuf);
            smr = client.registerMemory(sbuf);
        }
        for (; srqPosted < srqDepth; ++srqPosted) {
            Span call("qpip.postRecv", Layer::Qpip);
            countPost(srq->postRecv(srqPosted, *rmr, srqPosted % srqDepth,
                                    1),
                      postFailures);
        }
        verbs::QpAttrs serverAttrs;
        serverAttrs.srq = srq;
        acc = std::make_unique<verbs::Acceptor>(server, 700, scq, scq);
        serverQps.reserve(nQps);
        for (std::size_t i = 0; i < nQps; ++i) {
            Span call("qpip.acceptOne", Layer::Qpip);
            acc->acceptOne(
                [&](std::shared_ptr<verbs::QueuePair> q) {
                    Span cb("bench.callback", Layer::Bench);
                    serverQps.push_back(std::move(q));
                },
                serverAttrs);
        }
        clientQps.reserve(nQps);
        for (std::size_t i = 0; i < nQps; ++i) {
            std::shared_ptr<verbs::QueuePair> qp;
            {
                Span call("qpip.createQp", Layer::Qpip);
                qp = client.createQp(nic::QpType::ReliableTcp, ccq, ccq,
                                     verbs::QpAttrs{window, 0, nullptr, 0});
            }
            {
                Span call("qpip.connect", Layer::Qpip);
                qp->connect(bed->addr(1, 700), [&](bool ok) {
                    Span cb("bench.callback", Layer::Bench);
                    connected += ok ? 1 : 0;
                });
            }
            clientQps.push_back(std::move(qp));
        }
        ready = runSim(
            sim,
            [&] {
                return connected == nQps && serverQps.size() == nQps;
            },
            sim.now() + connectDeadline);
    }
    probe.setupDone(*bed);
    const auto &txc = bed->nicOf(0).qpCache();
    const auto &rxc = bed->nicOf(1).qpCache();
    const std::uint64_t txMiss0 = txc.misses.value();
    const std::uint64_t rxMiss0 = rxc.misses.value();
    const Tick fwBusy0 = bed->nicOf(1).fw().busyTotal();
    const Tick busyClient0 = bed->host(0).cpu().busyTotal();
    const Tick busyServer0 = bed->host(1).cpu().busyTotal();

    apps::waitLoop(*scq, [&](verbs::Completion c) {
        Span cb("bench.callback", Layer::Bench);
        if (c.isSend)
            return;
        ++received;
        std::uint8_t &slot = rbuf[c.wrId % srqDepth];
        if (a.inject != nullptr)
            a.inject->corrupt(&slot, 1);
        const bool lost = a.inject != nullptr && a.inject->drop();
        if (!lost && c.status == verbs::WcStatus::Success && c.byteLen == 1)
            byConnection[c.from.port].push_back(slot);
        Span call("qpip.postRecv", Layer::Qpip);
        countPost(srq->postRecv(srqPosted, *rmr, srqPosted % srqDepth, 1),
                  postFailures);
        ++srqPosted;
    });
    const auto sendNext = [&] {
        if (sent >= messages)
            return;
        Span call("qpip.postSend", Layer::Qpip);
        if (countPost(clientQps[nextQp]->postSend(sent, *smr, sent, 1),
                      postFailures)) {
            nextQp = (nextQp + 1) % nQps;
            ++sent;
        }
    };
    apps::waitLoop(*ccq, [&](verbs::Completion c) {
        Span cb("bench.callback", Layer::Bench);
        if (c.isSend)
            sendNext();
    });
    if (ready) {
        Span cb("bench.callback", Layer::Bench);
        for (std::size_t i = 0; i < window && i < messages; ++i)
            sendNext();
    }
    r.completed = ready && runSim(
                               sim, [&] { return received >= messages; },
                               sim.now() + runDeadline);
    const Tick ticks = probe.measuredTicks(*bed);
    probe.measureDone(*bed);

    r.model["sim_ticks"] = static_cast<double>(ticks);
    r.model["completions_per_sim_s"] =
        ticks > 0 ? static_cast<double>(received) / sim::ticksToSec(ticks)
                  : 0.0;
    r.model["tx_ctx_misses"] =
        static_cast<double>(txc.misses.value() - txMiss0);
    r.model["rx_ctx_misses"] =
        static_cast<double>(rxc.misses.value() - rxMiss0);
    r.model["server_fw_busy_frac"] =
        ticks > 0 ? static_cast<double>(
                        bed->nicOf(1).fw().busyTotal() - fwBusy0) /
                        static_cast<double>(ticks)
                  : 0.0;
    r.model["client_cpu_util"] = host::CpuModel::utilization(
        bed->host(0).cpu().busyTotal() - busyClient0, ticks);
    r.model["server_cpu_util"] = host::CpuModel::utilization(
        bed->host(1).cpu().busyTotal() - busyServer0, ticks);
    r.counts["qpip.post_failures"] = static_cast<double>(postFailures);
    r.counts["qpip.wrs_posted"] = static_cast<double>(srqPosted + sent);

    // Verify: received per-connection sequences against per-QP sent
    // sequences, matched as multisets.
    {
        Span v("bench.verify", Layer::Bench);
        std::vector<std::vector<std::uint8_t>> want(nQps), got;
        for (std::uint64_t i = 0; i < sent; ++i)
            want[i % nQps].push_back(sbuf[i]);
        for (auto &[port, seq] : byConnection)
            got.push_back(std::move(seq));
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        std::size_t i = 0, j = 0;
        while (i < want.size() && j < got.size()) {
            if (want[i] == got[j]) {
                r.opsOk += want[i].size();
                ++i;
                ++j;
            } else if (want[i] < got[j]) {
                ++i;
            } else {
                ++j;
            }
        }
    }
    r.opsAttempted = messages;
    r.opsCompleted = std::min(received, messages);

    {
        Span t("apps.teardown", Layer::Apps);
        clientQps.clear();
        serverQps.clear();
        acc.reset();
        srq.reset();
        scq.reset();
        ccq.reset();
        rmr.reset();
        smr.reset();
        bed.reset();
    }
    r.end = stamp();
    return r;
}

// ---------------------------------------------------------------------
// qpip_stream: RC + RUD sharing an SRQ, mixed opcodes and sizes
// ---------------------------------------------------------------------

/** One client work request of the stream workload. */
struct StreamOp
{
    enum Kind : std::uint8_t { Send, Write, Read };
    Kind kind = Send;
    bool rud = false;
    std::uint32_t len = 0;
    /** Where the op's bytes start in the pattern. */
    std::uint32_t patOff = 0;
};

/** A run of ops posted with one call: a send chain or one RDMA op. */
struct StreamItem
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
};

/** splitmix64 step: the workload seed's op-mix generator. */
std::uint64_t
mix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

RepResult
runQpipStream(const WorkloadArgs &a)
{
    constexpr std::size_t chain = 16;
    constexpr std::size_t window = 64;     // outstanding WRs per QP
    constexpr std::size_t srqDepth = 256;  // posted SRQ WRs
    constexpr std::size_t rxSlots = 512;   // landing slots (> srqDepth)
    constexpr std::size_t txSlots = window * 2 + chain;
    constexpr std::size_t slotBytes = 16384;
    constexpr std::size_t readArea = 1 << 20;
    constexpr std::uint32_t rdmaWindow = 1 << 16;

    RepResult r;
    Span root("bench.rep", Layer::Bench);
    const Pattern &pat = *a.pattern;
    Probe<QpipTestbed> probe(r, a.traced);

    // The op list has a fixed make-up: every 64 work requests are 32
    // RC sends (two 16-send chains), 16 RUD sends (one chain), 8 RDMA
    // Writes and 8 RDMA Reads, and each kind's sizes are one log-spaced
    // ladder over 64 B .. 16 KB. The seed shuffles the sizes and the
    // order of the RC items and places each op's bytes in the pattern,
    // so every seed does the same amount of simulated work.
    std::vector<StreamOp> ops;
    std::vector<StreamItem> rcItems, rudItems;
    {
        const std::size_t blocks =
            static_cast<std::size_t>(std::max<std::uint64_t>(1, a.size / 64));
        std::uint64_t state = a.seed * 0x2545f4914f6cdd1dULL + 17;
        const auto shuffle = [&](auto &v) {
            for (std::size_t i = v.size(); i > 1; --i)
                std::swap(v[i - 1], v[mix(state) % i]);
        };
        const auto ladder = [&](std::size_t n) {
            std::vector<std::uint32_t> sizes(n);
            for (std::size_t j = 0; j < n; ++j)
                sizes[j] = static_cast<std::uint32_t>(std::min<double>(
                    slotBytes,
                    64.0 * std::pow(256.0, (static_cast<double>(j) + 0.5) /
                                               static_cast<double>(n))));
            shuffle(sizes);
            return sizes;
        };
        const auto rcSendSizes = ladder(32 * blocks);
        const auto rudSendSizes = ladder(16 * blocks);
        const auto writeSizes = ladder(8 * blocks);
        const auto readSizes = ladder(8 * blocks);
        std::size_t nRcSend = 0, nWrite = 0, nRead = 0;
        const auto add = [&](StreamOp::Kind kind, bool rud,
                             std::uint32_t len) {
            StreamOp op;
            op.kind = kind;
            op.rud = rud;
            op.len = len;
            op.patOff =
                static_cast<std::uint32_t>(mix(state) % (readArea - len));
            ops.push_back(op);
        };
        std::vector<StreamOp::Kind> rcOrder;
        rcOrder.insert(rcOrder.end(), 2 * blocks, StreamOp::Send);
        rcOrder.insert(rcOrder.end(), 8 * blocks, StreamOp::Write);
        rcOrder.insert(rcOrder.end(), 8 * blocks, StreamOp::Read);
        shuffle(rcOrder);
        for (const StreamOp::Kind kind : rcOrder) {
            const auto first = static_cast<std::uint32_t>(ops.size());
            if (kind == StreamOp::Send) {
                for (std::size_t i = 0; i < chain; ++i)
                    add(kind, false, rcSendSizes[nRcSend++]);
                rcItems.push_back({first, chain});
            } else {
                add(kind, false,
                    kind == StreamOp::Write ? writeSizes[nWrite++]
                                            : readSizes[nRead++]);
                rcItems.push_back({first, 1});
            }
        }
        for (std::size_t b = 0; b < blocks; ++b) {
            const auto first = static_cast<std::uint32_t>(ops.size());
            for (std::size_t i = 0; i < chain; ++i)
                add(StreamOp::Send, true, rudSendSizes[b * chain + i]);
            rudItems.push_back({first, chain});
        }
    }
    std::vector<std::uint32_t> rcSends, rudSends; // per-QP send order
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind == StreamOp::Send)
            (ops[i].rud ? rudSends : rcSends).push_back(i);
    }

    std::vector<std::uint8_t> rbuf(rxSlots * slotBytes);
    std::vector<std::uint8_t> sbuf(txSlots * slotBytes);
    // Server one-sided area: txSlots write targets, then the read
    // source, which holds the pattern's first readArea bytes.
    std::vector<std::uint8_t> area(txSlots * slotBytes + readArea);
    pat.fill(0, area.data() + txSlots * slotBytes, readArea);

    // A send is good when both ends saw it intact; a one-sided op
    // when its completion checked out.
    std::vector<std::uint8_t> clientOk(ops.size(), 0);
    std::vector<std::uint8_t> serverOk(ops.size(), 0);
    std::vector<std::uint8_t> opDone(ops.size(), 0);
    std::vector<std::uint32_t> slotOf(ops.size(), 0);
    std::vector<std::uint32_t> freeSlots;
    for (std::uint32_t s = txSlots; s-- > 0;)
        freeSlots.push_back(s);

    std::shared_ptr<verbs::CompletionQueue> scq, ccq;
    std::shared_ptr<verbs::SharedReceiveQueue> srq;
    std::shared_ptr<verbs::MemoryRegion> rmr, smr, amr;
    std::shared_ptr<verbs::QueuePair> serverRc, serverRud, rcQp, rudQp;
    std::unique_ptr<verbs::Acceptor> acc;
    std::uint64_t srqPosted = 0, consumedSinceRepost = 0;
    std::uint64_t received = 0, clientDone = 0, postFailures = 0;
    std::uint64_t wrsPosted = 0;
    std::size_t rcNext = 0, rudNext = 0, rcInflight = 0, rudInflight = 0;
    std::size_t rcRecvd = 0, rudRecvd = 0;
    bool connected = false;
    std::uint64_t bytesMoved = 0;

    auto bed = traced("apps.build", Layer::Apps, [] {
        nic::QpipNicParams params;
        // bench_msgrate's batched arm: a ~2 us doorbell coalescing
        // window and CQ notify after 8 CQEs or ~10 us.
        params.doorbellCoalesceCycles = 266;
        params.cqModerationCount = 8;
        params.cqModerationCycles = 1330;
        return std::make_unique<QpipTestbed>(2, apps::qpipNativeMtu, 1,
                                             params);
    });
    auto &client = bed->provider(0);
    auto &server = bed->provider(1);
    auto &sim = bed->sim();
    const auto serverRudAddr = bed->addr(1, 800);

    bool ready = false;
    {
        Span setup("qpip.setup", Layer::Qpip);
        {
            Span call("qpip.createResources", Layer::Qpip);
            scq = server.createCq(1 << 16);
            ccq = client.createCq(1 << 16);
            srq = server.createSrq(1 << 16);
            rmr = server.registerMemory(rbuf);
            amr = server.registerMemory(area, nic::accessRemoteRw);
            smr = client.registerMemory(sbuf);
        }
        {
            std::vector<verbs::RecvWrSpec> specs;
            for (; srqPosted < srqDepth; ++srqPosted)
                specs.push_back({srqPosted, rmr.get(),
                                 (srqPosted % rxSlots) * slotBytes,
                                 slotBytes});
            Span call("qpip.postRecvList", Layer::Qpip);
            countPost(srq->postRecvList(specs), postFailures);
        }
        verbs::QpAttrs rcAttrs;
        rcAttrs.srq = srq;
        rcAttrs.rdmaWindowBytes = rdmaWindow;
        acc = std::make_unique<verbs::Acceptor>(server, 700, scq, scq);
        {
            Span call("qpip.acceptOne", Layer::Qpip);
            acc->acceptOne(
                [&](std::shared_ptr<verbs::QueuePair> q) {
                    Span cb("bench.callback", Layer::Bench);
                    serverRc = std::move(q);
                },
                rcAttrs);
        }
        {
            Span call("qpip.createQp", Layer::Qpip);
            verbs::QpAttrs rudAttrs;
            rudAttrs.srq = srq;
            serverRud = server.createQp(nic::QpType::ReliableDatagram,
                                        scq, scq, rudAttrs);
            serverRud->bind(800);
            rcQp = client.createQp(
                nic::QpType::ReliableTcp, ccq, ccq,
                verbs::QpAttrs{window, 0, nullptr, rdmaWindow});
            rudQp = client.createQp(nic::QpType::ReliableDatagram, ccq,
                                    ccq,
                                    verbs::QpAttrs{window, 0, nullptr, 0});
            rudQp->bind(2000);
        }
        {
            Span call("qpip.connect", Layer::Qpip);
            rcQp->connect(bed->addr(1, 700), [&](bool ok) {
                Span cb("bench.callback", Layer::Bench);
                connected = ok;
            });
        }
        ready = runSim(
            sim, [&] { return connected && serverRc != nullptr; },
            sim.now() + connectDeadline);
    }
    probe.setupDone(*bed);
    const Tick fwBusy0 = std::max(bed->nicOf(0).fw().busyTotal(),
                                  bed->nicOf(1).fw().busyTotal());
    const Tick busyClient0 = bed->host(0).cpu().busyTotal();
    const Tick busyServer0 = bed->host(1).cpu().busyTotal();

    const auto stage = [&](std::uint32_t i) {
        const std::uint32_t s = freeSlots.back();
        freeSlots.pop_back();
        slotOf[i] = s;
        if (ops[i].kind != StreamOp::Read)
            pat.fill(ops[i].patOff, sbuf.data() + s * slotBytes,
                     ops[i].len);
        return s;
    };
    // Post items while the QP's window has room for the whole item.
    const auto topUp = [&](bool rud) {
        const auto &items = rud ? rudItems : rcItems;
        std::size_t &next = rud ? rudNext : rcNext;
        std::size_t &inflight = rud ? rudInflight : rcInflight;
        auto &qp = rud ? *rudQp : *rcQp;
        while (next < items.size() &&
               inflight + items[next].count <= window) {
            const StreamItem it = items[next];
            const StreamOp &op = ops[it.first];
            bool ok = false;
            if (op.kind == StreamOp::Send) {
                std::vector<verbs::SendWrSpec> specs;
                specs.reserve(it.count);
                for (std::uint32_t i = it.first; i < it.first + it.count;
                     ++i)
                    specs.push_back({i, smr.get(), stage(i) * slotBytes,
                                     ops[i].len, serverRudAddr});
                Span call("qpip.postSendList", Layer::Qpip);
                ok = countPost(qp.postSendList(specs), postFailures);
            } else if (op.kind == StreamOp::Write) {
                const std::uint32_t s = stage(it.first);
                Span call("qpip.postWrite", Layer::Qpip);
                ok = countPost(qp.postWrite(it.first, *smr, s * slotBytes,
                                            op.len, amr->key(),
                                            s * slotBytes),
                               postFailures);
            } else {
                const std::uint32_t s = stage(it.first);
                Span call("qpip.postRead", Layer::Qpip);
                ok = countPost(
                    qp.postRead(it.first, *smr, s * slotBytes, op.len,
                                amr->key(),
                                txSlots * slotBytes + op.patOff),
                    postFailures);
            }
            if (!ok) {
                for (std::uint32_t i = it.first; i < it.first + it.count;
                     ++i)
                    freeSlots.push_back(slotOf[i]);
                return;
            }
            wrsPosted += it.count;
            inflight += it.count;
            ++next;
        }
    };

    apps::waitLoop(*ccq, [&](verbs::Completion c) {
        Span cb("bench.callback", Layer::Bench);
        if (!c.isSend || c.wrId >= ops.size())
            return;
        const auto i = static_cast<std::uint32_t>(c.wrId);
        const StreamOp &op = ops[i];
        const std::uint32_t s = slotOf[i];
        ++clientDone;
        opDone[i] = 1;
        const bool lost = a.inject != nullptr && a.inject->drop();
        if (c.status == verbs::WcStatus::Success && !lost) {
            if (op.kind == StreamOp::Write) {
                std::uint8_t *landed = area.data() + s * slotBytes;
                if (a.inject != nullptr)
                    a.inject->corrupt(landed, op.len);
                clientOk[i] = pat.matches(op.patOff, landed, op.len);
            } else if (op.kind == StreamOp::Read) {
                std::uint8_t *landed = sbuf.data() + s * slotBytes;
                if (a.inject != nullptr)
                    a.inject->corrupt(landed, op.len);
                clientOk[i] = c.byteLen == op.len &&
                              pat.matches(op.patOff, landed, op.len);
            } else {
                clientOk[i] = 1;
            }
        }
        bytesMoved += op.len;
        freeSlots.push_back(s);
        --(op.rud ? rudInflight : rcInflight);
        topUp(op.rud);
    });
    apps::waitLoop(*scq, [&](verbs::Completion c) {
        Span cb("bench.callback", Layer::Bench);
        if (c.isSend)
            return;
        ++received;
        const bool rud = serverRud != nullptr && c.qp == serverRud->num();
        auto &order = rud ? rudSends : rcSends;
        std::size_t &k = rud ? rudRecvd : rcRecvd;
        if (k < order.size()) {
            const std::uint32_t i = order[k++];
            std::uint8_t *landed =
                rbuf.data() + (c.wrId % rxSlots) * slotBytes;
            if (a.inject != nullptr)
                a.inject->corrupt(landed, c.byteLen);
            const bool lost = a.inject != nullptr && a.inject->drop();
            // In-order check: the k-th arrival on a QP must be the
            // k-th send posted to it.
            const bool good = !lost &&
                              c.status == verbs::WcStatus::Success &&
                              c.byteLen == ops[i].len &&
                              pat.matches(ops[i].patOff, landed,
                                          ops[i].len);
            serverOk[i] = good ? 1 : 0;
        }
        if (++consumedSinceRepost >= chain) {
            std::vector<verbs::RecvWrSpec> specs;
            specs.reserve(consumedSinceRepost);
            for (; consumedSinceRepost > 0; --consumedSinceRepost) {
                specs.push_back({srqPosted, rmr.get(),
                                 (srqPosted % rxSlots) * slotBytes,
                                 slotBytes});
                ++srqPosted;
            }
            Span call("qpip.postRecvList", Layer::Qpip);
            countPost(srq->postRecvList(specs), postFailures);
            wrsPosted += specs.size();
        }
    });
    if (ready) {
        Span cb("bench.callback", Layer::Bench);
        topUp(false);
        topUp(true);
    }
    const std::uint64_t sends = rcSends.size() + rudSends.size();
    r.completed =
        ready && runSim(
                     sim,
                     [&] {
                         return clientDone >= ops.size() &&
                                received >= sends;
                     },
                     sim.now() + runDeadline);
    const Tick ticks = probe.measuredTicks(*bed);
    probe.measureDone(*bed);

    const double simS = sim::ticksToSec(ticks);
    r.model["sim_ticks"] = static_cast<double>(ticks);
    r.model["completions_per_sim_s"] =
        simS > 0 ? static_cast<double>(clientDone) / simS : 0.0;
    r.model["sim_mb_per_s"] =
        simS > 0 ? static_cast<double>(bytesMoved) / (1024.0 * 1024.0) /
                       simS
                 : 0.0;
    r.model["fw_busy_frac"] =
        ticks > 0
            ? static_cast<double>(
                  std::max(bed->nicOf(0).fw().busyTotal(),
                           bed->nicOf(1).fw().busyTotal()) -
                  fwBusy0) /
                  static_cast<double>(ticks)
            : 0.0;
    r.model["client_cpu_util"] = host::CpuModel::utilization(
        bed->host(0).cpu().busyTotal() - busyClient0, ticks);
    r.model["server_cpu_util"] = host::CpuModel::utilization(
        bed->host(1).cpu().busyTotal() - busyServer0, ticks);
    r.counts["qpip.post_failures"] = static_cast<double>(postFailures);
    r.counts["qpip.wrs_posted"] =
        static_cast<double>(wrsPosted + srqDepth);

    r.opsAttempted = ops.size();
    r.opsCompleted = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        r.opsCompleted += opDone[i];
        const bool needsServer = ops[i].kind == StreamOp::Send;
        r.opsOk += clientOk[i] && (!needsServer || serverOk[i]) ? 1 : 0;
    }

    {
        Span t("apps.teardown", Layer::Apps);
        rcQp.reset();
        rudQp.reset();
        serverRc.reset();
        serverRud.reset();
        acc.reset();
        srq.reset();
        scq.reset();
        ccq.reset();
        rmr.reset();
        amr.reset();
        smr.reset();
        bed.reset();
    }
    r.end = stamp();
    return r;
}

// ---------------------------------------------------------------------
// fabric_shift: 128 socket flows across the k=8 fat-tree
// ---------------------------------------------------------------------

/**
 * apps::runSocketsTtcpPairs' call sequence for one shift permutation
 * (host i sends to host (i + s) mod 128), under the parallel engine.
 * Each flow's receiver checks its own stream; its state is touched
 * only by the receiving host's partition, so the checks need no lock.
 */
RepResult
runFabricShift(const WorkloadArgs &a)
{
    constexpr std::size_t nHosts = 128;
    RepResult r;
    Span root("bench.rep", Layer::Bench);
    const std::uint64_t perFlow = a.size << 10;
    const Pattern &pat = *a.pattern;
    const std::size_t shift = 16 + static_cast<std::size_t>(
                                       (a.seed * 0x9e3779b97f4a7c15ULL) >>
                                       32) %
                                       (nHosts - 31);
    Probe<SocketsTestbed> probe(r, a.traced);

    struct Flow
    {
        std::size_t src = 0, dst = 0;
        std::unique_ptr<StreamCheck> check;
        std::uint64_t delivered = 0;
        std::uint64_t sent = 0;
        std::uint8_t done = 0;
        std::shared_ptr<TcpSocket> tx, rx;
        std::function<void(TcpSocket *)> drain;
        std::function<void()> pump;
    };
    std::vector<Flow> flows(nHosts);
    for (std::size_t k = 0; k < nHosts; ++k) {
        flows[k].src = k;
        flows[k].dst = (k + shift) % nHosts;
        // Each flow reads its own window of the pattern; only flow 0
        // takes the self-test's injected fault.
        flows[k].check = std::make_unique<StreamCheck>(
            pat, k * 7919, perFlow, k == 0 ? a.inject : nullptr);
    }

    auto bed = traced("apps.build", Layer::Apps, [&] {
        return std::make_unique<SocketsTestbed>(
            nHosts, apps::SocketsFabric::GigabitEthernet, 1,
            host::HostCostModel{}, apps::FabricTopology::FatTreeK8);
    });
    traced("sim.engine.enableParallel", Layer::SimEngine,
           [&] { bed->enableParallel(a.threads); });
    auto &sim = bed->sim();
    auto cfg = bed->tcpConfig();
    cfg.noDelay = true;

    for (std::size_t k = 0; k < nHosts; ++k) {
        Flow &f = flows[k];
        f.drain = [&f, perFlow](TcpSocket *sock) {
            Span call("host.recv", Layer::Host);
            sock->recv(262144, [&f, sock,
                                perFlow](std::vector<std::uint8_t> d) {
                Span cb("bench.callback", Layer::Bench);
                if (d.empty())
                    return;
                f.check->deliver(f.delivered, d);
                f.delivered += d.size();
                if (f.delivered >= perFlow) {
                    f.done = 1;
                    return;
                }
                f.drain(sock);
            });
        };
        Span call("host.tcpListen", Layer::Host);
        bed->host(f.dst).stack().tcpListen(
            static_cast<std::uint16_t>(ttcpPort + k), cfg,
            [&f](std::shared_ptr<TcpSocket> sock) {
                Span cb("bench.callback", Layer::Bench);
                f.rx = sock;
                f.drain(sock.get());
            });
    }
    for (std::size_t k = 0; k < nHosts; ++k) {
        Span call("host.tcpConnect", Layer::Host);
        flows[k].tx = bed->host(flows[k].src)
                          .stack()
                          .tcpConnect(bed->addr(flows[k].src,
                                                static_cast<std::uint16_t>(
                                                    30000 + k)),
                                      bed->addr(flows[k].dst,
                                                static_cast<std::uint16_t>(
                                                    ttcpPort + k)),
                                      cfg, nullptr);
    }
    const bool connected = runSim(
        sim,
        [&] {
            for (const auto &f : flows) {
                if (!f.tx->connected())
                    return false;
            }
            return true;
        },
        sim.now() + connectDeadline);
    probe.setupDone(*bed);
    std::vector<Tick> busy0(nHosts);
    for (std::size_t h = 0; h < nHosts; ++h)
        busy0[h] = bed->host(h).cpu().busyTotal();

    const auto doneCount = [&] {
        std::size_t n = 0;
        for (const auto &f : flows)
            n += f.done;
        return n;
    };
    for (auto &f : flows) {
        f.pump = [&f, &pat, perFlow, k = f.src] {
            Span cb("bench.callback", Layer::Bench);
            if (f.sent >= perFlow)
                return;
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(writeBytes, perFlow - f.sent));
            std::vector<std::uint8_t> buf(n);
            pat.fill(k * 7919 + f.sent, buf.data(), n);
            f.sent += n;
            Span call("host.sendAll", Layer::Host);
            f.tx->sendAll(std::move(buf), [&f] { f.pump(); });
        };
    }
    if (connected) {
        for (auto &f : flows)
            f.pump();
    }
    r.completed =
        connected && runSim(
                         sim, [&] { return doneCount() >= nHosts; },
                         sim.now() + runDeadline);
    const Tick ticks = probe.measuredTicks(*bed);
    probe.measureDone(*bed);

    r.model["shift"] = static_cast<double>(shift);
    r.model["sim_ticks"] = static_cast<double>(ticks);
    r.model["sim_mb_per_s"] =
        ticks > 0 ? static_cast<double>(perFlow * nHosts) /
                        (1024.0 * 1024.0) / sim::ticksToSec(ticks)
                  : 0.0;
    double util = 0.0;
    for (std::size_t h = 0; h < nHosts; ++h)
        util += host::CpuModel::utilization(
            bed->host(h).cpu().busyTotal() - busy0[h], ticks);
    r.model["mean_host_cpu_util"] = util / nHosts;
    for (const auto &f : flows) {
        r.opsAttempted += f.check->writes();
        r.opsCompleted += f.check->completedWrites(f.delivered);
        r.opsOk += f.check->goodWrites();
    }

    {
        Span t("apps.teardown", Layer::Apps);
        for (auto &f : flows) {
            f.tx.reset();
            f.rx.reset();
        }
        bed.reset();
    }
    r.end = stamp();
    return r;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> list = {
        {"sockets_bulk", "MB", 128, 1, runSocketsBulk},
        {"qpip_fanin", "messages", 4096, 1, runQpipFanin},
        {"qpip_stream", "work requests", 8192, 1, runQpipStream},
        {"fabric_shift", "KB per flow", 256, 4, runFabricShift},
    };
    return list;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

} // namespace perfbench
