#include "net/link.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace qpip::net {

using sim::panic;
using sim::warn;

LinkConfig
gigabitEthernetLink()
{
    LinkConfig cfg;
    cfg.bitsPerSec = 1e9;
    cfg.propDelay = sim::oneUs; // phy + cable across a machine room
    cfg.mtu = 1500;
    // preamble(8) + MACs(12) + type(2) + FCS(4) + IFG(12)
    cfg.overheadBytes = 38;
    cfg.txQueueCap = 512;
    return cfg;
}

LinkConfig
myrinetLink(std::uint32_t mtu)
{
    LinkConfig cfg;
    cfg.bitsPerSec = 2e9;
    cfg.propDelay = sim::oneUs / 2;
    cfg.mtu = mtu;
    cfg.overheadBytes = 8; // route bytes + type + CRC
    // Myrinet applies link-level backpressure instead of dropping;
    // a deep queue approximates that losslessness.
    cfg.txQueueCap = 1 << 20;
    return cfg;
}

Link::Link(sim::Simulation &sim, std::string name, LinkConfig config)
    : SimObject(sim, std::move(name)), cfg_(config), faults_(sim.rng())
{
    regStat("packetsSent", counters.packetsSent);
    regStat("bytesSent", counters.bytesSent);
    regStat("oversizeDrops", counters.oversizeDrops);
    regStat("queueDrops", counters.queueDrops);
    regStat("faults.drops", faults_.drops);
    regStat("faults.dups", faults_.dups);
    regStat("faults.corruptions", faults_.corruptions);
    regStat("faults.reorders", faults_.reorders);
    for (auto &d : dir_) {
        d.eq = &eventQueue();
        d.faults = &faults_;
        d.counters = &counters;
    }
}

void
Link::attach(int side, NetReceiver &receiver)
{
    dir_.at(static_cast<std::size_t>(side)).receiver = &receiver;
}

sim::Tick
Link::serializationDelay(std::size_t wire_bytes) const
{
    const double bits = static_cast<double>(wire_bytes) * 8.0;
    return static_cast<sim::Tick>(
        std::llround(bits / cfg_.bitsPerSec * 1e12));
}

namespace {

[[noreturn]] void
panicSharedTap(const std::string &link)
{
    panic("%s: a whole-link tap would be written from two partitions "
          "under the parallel engine; tap each side with "
          "net::tapLinkSide instead",
          link.c_str());
}

void
foldInto(sim::Counter &to, sim::Counter &from)
{
    to.inc(from.value());
    from.reset();
}

} // namespace

void
Link::bindSide(int side, sim::Partition &src, sim::Mailbox *outbox)
{
    if (sharedTap_)
        panicSharedTap(name());
    auto &d = dir_.at(static_cast<std::size_t>(side));
    d.own = std::make_unique<SideState>(src.rng());
    d.eq = &src.eventQueue();
    d.outbox = outbox;
    d.faults = &d.own->faults;
    d.counters = &d.own->counters;
}

void
Link::setTap(LinkTap tap)
{
    if (bound())
        panicSharedTap(name());
    dir_[0].tap = tap;
    dir_[1].tap = std::move(tap);
    sharedTap_ = true;
}

void
Link::setSideTap(int side, LinkTap tap)
{
    dir_.at(static_cast<std::size_t>(side)).tap = std::move(tap);
    // The other side keeps its tap, now the only writer into it.
    sharedTap_ = false;
}

void
Link::foldBoundaryStats()
{
    for (auto &d : dir_) {
        if (d.own == nullptr)
            continue;
        LinkCounters &c = d.own->counters;
        foldInto(counters.packetsSent, c.packetsSent);
        foldInto(counters.bytesSent, c.bytesSent);
        foldInto(counters.oversizeDrops, c.oversizeDrops);
        foldInto(counters.queueDrops, c.queueDrops);
        FaultInjector &f = d.own->faults;
        foldInto(faults_.drops, f.drops);
        foldInto(faults_.dups, f.dups);
        foldInto(faults_.corruptions, f.corruptions);
        foldInto(faults_.reorders, f.reorders);
    }
}

/**
 * The one transmit path. All mutable state it touches — busyUntil,
 * counters, the fault stream, the tap — belongs to the sending
 * direction: the link's own in serial mode, the sending partition's
 * once bindSide has run.
 */
bool
Link::send(int from_side, PacketPtr pkt)
{
    auto &tx = dir_.at(static_cast<std::size_t>(from_side));
    const int to_side = from_side ^ 1;

    if (pkt->data.size() > cfg_.mtu) {
        tx.counters->oversizeDrops.inc();
        warn("%s: dropping oversize packet (%zu > mtu %u)",
             name().c_str(), pkt->data.size(), cfg_.mtu);
        return false;
    }

    const sim::Tick now = tx.eq->now();
    // Model queue depth by how far ahead of real time the transmitter
    // is already committed.
    if (tx.busyUntil > now) {
        const sim::Tick backlog = tx.busyUntil - now;
        const sim::Tick one_mtu =
            serializationDelay(cfg_.mtu + cfg_.overheadBytes);
        if (backlog > one_mtu * cfg_.txQueueCap) {
            tx.counters->queueDrops.inc();
            return false;
        }
    }

    pkt->linkOverheadBytes = cfg_.overheadBytes;
    if (pkt->injectedAt == 0)
        pkt->injectedAt = now;

    const sim::Tick start = std::max(now, tx.busyUntil);
    const sim::Tick ser = serializationDelay(pkt->wireBytes());
    tx.busyUntil = start + ser;

    tx.counters->packetsSent.inc();
    tx.counters->bytesSent.inc(pkt->wireBytes());

    // A bound side rolls its private stream against the live config
    // (tests flip fault rates between runs).
    if (tx.faults != &faults_)
        tx.faults->config = faults_.config;
    FaultDecision fault = tx.faults->apply(*pkt);

    if (tx.tap)
        tx.tap(*pkt, start);
    // The parallel engine refuses tracing, so only serial runs trace.
    if (tracer().enabled()) {
        // Tag with the link-local sequence number (not pkt->id, which
        // is a process-global counter and would break same-seed trace
        // comparisons across runs).
        tracer().span(name(), "tx", start, ser,
                      sim::strfmt("{\"seq\": %llu, \"bytes\": %zu, "
                                  "\"side\": %d}",
                                  static_cast<unsigned long long>(
                                      tx.counters->packetsSent.value()),
                                  pkt->wireBytes(), from_side));
    }

    if (fault.drop)
        return true; // consumed the wire, never arrives

    auto &rx = dir_.at(static_cast<std::size_t>(to_side));
    if (rx.receiver == nullptr)
        panic("%s: side %d has no receiver", name().c_str(), to_side);
    deliver(tx, rx.receiver, pkt, fault.extraDelay);
    if (fault.duplicate)
        deliver(tx, rx.receiver, clonePacket(*pkt), fault.extraDelay);
    return true;
}

void
Link::deliver(const Direction &tx, NetReceiver *receiver, PacketPtr pkt,
              sim::Tick extra_delay)
{
    const sim::Tick arrive = tx.busyUntil + cfg_.propDelay + extra_delay;
    auto fn = [receiver, pkt = std::move(pkt)] {
        receiver->onPacket(pkt);
    };
    if (tx.outbox != nullptr)
        tx.outbox->post(arrive, std::move(fn));
    else
        tx.eq->schedule(arrive, std::move(fn));
}

} // namespace qpip::net
