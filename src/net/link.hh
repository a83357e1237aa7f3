/**
 * @file
 * A full-duplex point-to-point link with finite bandwidth, fixed
 * propagation delay, an MTU, and per-direction store-and-forward
 * serialization. Each direction models the transmitter: packets queue
 * behind one another and occupy the wire for wireBytes()*8/bandwidth.
 *
 * Two link personalities are used by the testbeds:
 *  - Gigabit Ethernet: 1 Gb/s, 1500 B MTU, 38 B of framing overhead.
 *  - Myrinet: 2 Gb/s full duplex, arbitrary MTU, 8 B framing,
 *    effectively lossless (large queue, link-level backpressure).
 */

#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "net/fault.hh"
#include "net/packet.hh"
#include "sim/partition.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace qpip::net {

/** Capture callback: a frame and the tick its serialization starts. */
using LinkTap = std::function<void(const Packet &, sim::Tick)>;

/** The counters one link transmitter writes. */
struct LinkCounters
{
    sim::Counter packetsSent;
    sim::Counter bytesSent;
    sim::Counter oversizeDrops;
    sim::Counter queueDrops;
};

/** Static parameters of a link. */
struct LinkConfig
{
    /** Raw bit rate in bits per second. */
    double bitsPerSec = 1e9;
    /** One-way propagation + phy delay. */
    sim::Tick propDelay = sim::oneUs;
    /** Maximum network-layer bytes per frame (excl. link overhead). */
    std::uint32_t mtu = 1500;
    /** Modeled link header/trailer bytes added to every frame. */
    std::uint32_t overheadBytes = 38;
    /** Transmit queue capacity in packets (drop-tail beyond). */
    std::size_t txQueueCap = 1024;
};

/** Canned Gigabit Ethernet link parameters (Intel Pro1000-like). */
LinkConfig gigabitEthernetLink();

/** Canned Myrinet 2000 link parameters (2 Gb/s, LANai 9 era). */
LinkConfig myrinetLink(std::uint32_t mtu = 16384);

/**
 * The link itself. Side 0 and side 1 are symmetrical.
 */
class Link : public sim::SimObject
{
  public:
    Link(sim::Simulation &sim, std::string name, LinkConfig config);

    /** Attach the receiver for @p side (0 or 1). */
    void attach(int side, NetReceiver &receiver);

    /**
     * Enqueue @p pkt for transmission from @p from_side toward the
     * other side. Oversized packets and queue overflow are dropped
     * (counted), mirroring real hardware.
     * @return false if the packet was dropped at enqueue time.
     */
    bool send(int from_side, PacketPtr pkt);

    /** Serialization time of @p wire_bytes on this link. */
    sim::Tick serializationDelay(std::size_t wire_bytes) const;

    const LinkConfig &config() const { return cfg_; }
    FaultInjector &faults() { return faults_; }

    /**
     * Parallel mode: bind the transmitter of @p side to its sending
     * partition @p src. From then on this direction schedules on
     * @p src's queue, draws faults from its own injector seeded off
     * @p src's RNG, and counts into its own counters (folded into the
     * public ones by foldBoundaryStats()). @p outbox carries
     * deliveries toward a receiver in another partition (nullptr when
     * both ends share one). Wired up by net::partitionFabric during
     * setup; panics if a whole-link tap is installed (see setTap).
     */
    void bindSide(int side, sim::Partition &src, sim::Mailbox *outbox);

    /** @return true once either side has been bound (parallel mode). */
    bool
    bound() const
    {
        return dir_[0].own != nullptr || dir_[1].own != nullptr;
    }

    /**
     * Capture tap on both transmitters, invoked for every frame that
     * occupies the wire (after fault injection, so corrupted bytes
     * are seen) with the tick its serialization starts. See
     * net/pcap.hh. A bound link's two sides run in different
     * partitions, so a tap shared between them panics, whether the
     * link is bound first or tapped first: tap each side instead.
     */
    void setTap(LinkTap tap);

    /**
     * Capture tap on the transmitter of @p side only (parallel mode:
     * invoked only from that side's sending partition).
     */
    void setSideTap(int side, LinkTap tap);

    /**
     * Fold the per-direction counters of bound sides (packet/byte/
     * drop/fault counts) into the public counters and reset them.
     * Sums are commutative, so the result is independent of execution
     * interleaving; registered as an engine fold hook.
     */
    void foldBoundaryStats();

    /** Written directly in serial mode; bound sides fold in. */
    LinkCounters counters;

  private:
    /** A bound direction's own fault stream and counters. */
    struct SideState
    {
        explicit SideState(sim::Random &rng) : faults(rng) {}
        FaultInjector faults;
        LinkCounters counters;
    };

    /**
     * One transmitter and the context it sends in. Serial default:
     * the link's own queue, no outbox, the shared faults_ stream and
     * the public counters; bindSide points the same fields at the
     * sending partition's.
     */
    struct Direction
    {
        NetReceiver *receiver = nullptr;
        sim::Tick busyUntil = 0;
        sim::EventQueue *eq = nullptr;
        /** Cross-partition channel to the receiver, or nullptr. */
        sim::Mailbox *outbox = nullptr;
        FaultInjector *faults = nullptr;
        LinkCounters *counters = nullptr;
        LinkTap tap;
        /** Set by bindSide: storage behind faults and counters. */
        std::unique_ptr<SideState> own;
    };

    void deliver(const Direction &tx, NetReceiver *receiver,
                 PacketPtr pkt, sim::Tick extra_delay);

    LinkConfig cfg_;
    FaultInjector faults_;
    std::array<Direction, 2> dir_;
    /** setTap installed one tap on both sides (serial mode only). */
    bool sharedTap_ = false;
};

} // namespace qpip::net
