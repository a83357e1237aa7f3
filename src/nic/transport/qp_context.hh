/**
 * @file
 * The NIC-side state of one QP / one SRQ: the doorbell-FSM shadows of
 * the host rings plus the protocol endpoints. These are nested types
 * of QpipNic (they predate the transport-engine split and every
 * engine touches them); the protocol *callbacks* they implement —
 * TcpObserver for the connected service, UdpEndpoint for the
 * datagram ones — immediately delegate the per-service work to the
 * owning NIC's transport engines.
 *
 * Every host ring has one RingShadow; a QP reaches its receive WRs
 * through one pointer, at its own shadow or its SRQ's (DESIGN §11).
 */

#pragma once

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "nic/qpip_nic.hh"
#include "nic/transport/rc_engine.hh"
#include "sim/fifo.hh"

namespace qpip::nic {

/**
 * The doorbell FSM's shadow of one host work ring (its QPIP state
 * table entry): intake() accounts the WRs a doorbell announced,
 * take() pops the oldest for the NIC to consume.
 */
template <typename Wr>
struct RingShadow
{
    sim::Fifo<Wr> *ring = nullptr;
    std::uint64_t seen = 0;     ///< WRs ever announced by a doorbell
    std::uint64_t consumed = 0; ///< WRs ever popped by the NIC
    /** Announced WRs still in the ring, and their buffer bytes. */
    std::uint32_t postedCount = 0;
    std::uint64_t postedBytes = 0;
    /**
     * Posted WRs held for admitted messages that take theirs later
     * (an RDMA-framed Send, after its RdmaExec parse).
     */
    std::uint32_t reserved = 0;

    /** @return WRs announced since the last intake (popped ones too). */
    std::uint64_t
    intake()
    {
        const std::uint64_t total = consumed + ring->size();
        for (std::uint64_t i = std::max(seen, consumed); i < total; ++i) {
            ++postedCount;
            postedBytes += (*ring)[i - consumed].sge.length;
        }
        return total - std::exchange(seen, total);
    }

    /** A posted WR is free for a newly admitted message. */
    bool available() const { return postedCount > reserved; }

    /** Pop the oldest WR. @pre the ring is not empty. */
    Wr
    take()
    {
        Wr wr = ring->front();
        ring->pop_front();
        if (consumed++ < seen) {
            --postedCount;
            postedBytes -= wr.sge.length;
        }
        return wr;
    }

    /** Teardown: pop every WR, announced or not, into @p fn. */
    template <typename Fn>
    void
    flush(Fn &&fn)
    {
        while (!ring->empty())
            fn(take());
        seen = consumed;
    }
};

/**
 * NIC-side state of one shared receive queue: the doorbell-FSM shadow
 * of the host ring plus the attached QPs. SRQ contexts are pinned in
 * SRAM — they are shared infrastructure like the demux table, not
 * per-QP state, so they don't flow through the QP context cache.
 *
 * A replenish offers the new WRs only to the attached QPs that can act
 * on them, in attach order (QpipNic::replenishSrq). `attached` keys
 * each QP by (replenish threshold, attach sequence): the threshold is
 * the least postedBytes at which its engine's recvReplenished could
 * act (TransportEngine::replenishThreshold), kept current by
 * QpipNic::srqRekey, so the QPs to visit are a prefix of the index.
 */
struct QpipNic::SrqContext
{
    RingShadow<RecvWr> recv;
    /** (threshold, attach sequence) -> QP; see above. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, QpContext *>
        attached;
    std::uint64_t nextAttachSeq = 0;
    /** QPs a replenish visits, as (attach sequence, QP). */
    std::vector<std::pair<std::uint64_t, QpContext *>> pass;
    /** The QP a replenish is visiting, else null. */
    QpContext *visiting = nullptr;
};

struct QpipNic::QpContext : public inet::TcpObserver,
                            public inet::UdpEndpoint
{
    QpContext(QpipNic &nic_ref, QpNum n, QpType t, QpHostRings *r,
              CqRing *s, CqRing *rc)
        : nic(nic_ref), num(n), type(t), scq(s), rcq(rc)
    {
        send.ring = &r->sendQ;
        ownRecv.ring = &r->recvQ;
    }

    QpipNic &nic;
    QpNum num;
    QpType type;
    CqRing *scq;
    CqRing *rcq;

    // NIC-side shadows of the host work rings.
    RingShadow<SendWr> send;
    RingShadow<RecvWr> ownRecv;
    /** Where receive WRs come from: ownRecv, or the SRQ's shadow. */
    RingShadow<RecvWr> *recv = &ownRecv;
    /** WRs this QP holds reserved in *recv. */
    std::uint32_t recvReserved = 0;

    /** The attached shared receive queue, else null. */
    SrqContext *srq = nullptr;
    /** This QP's key in srq->attached. */
    std::uint64_t srqThreshold = TransportEngine::neverReplenishes;
    std::uint64_t srqSeq = 0;
    /** Non-zero: RDMA framing on, one-sided window in bytes. */
    std::uint32_t rdmaWindow = 0;

    inet::SockAddr local;
    bool bound = false;
    std::unique_ptr<inet::TcpConnection> conn;
    ConnectCb connectDone;
    AcceptCb acceptDone;

    /** What an unacked TCP message was carrying. */
    enum class TxKind : std::uint8_t {
        Send,    ///< a plain send WR: completes on the TCP ACK
        RdmaReq, ///< Write/ReadReq: completes on the explicit response
        FwResp,  ///< firmware-generated WriteAck/ReadResp: no WR
    };

    struct Inflight
    {
        std::uint64_t tag = 0;
        TxKind kind = TxKind::Send;
        SendWr wr;
    };

    // Sent-but-unacked TCP messages, ACKed in FIFO order.
    sim::Fifo<Inflight> inflightSends;
    std::uint64_t nextTag = 1;

    // One-sided ops awaiting their response, answered in FIFO order
    // (responses ride the same TCP stream as the requests).
    sim::Fifo<std::pair<std::uint64_t, SendWr>> pendingRdma;
    std::uint64_t nextRdmaId = 1;

    bool recvWrAvailable() const { return recv->available(); }

    /** Let go of @p n held WRs: their messages take them now, or never. */
    void
    unreserveRecvWrs(std::uint32_t n)
    {
        recv->reserved -= n;
        recvReserved -= n;
    }

    /** An RDMA-framed message takes a receive WR only if a Send. */
    static bool
    rdmaTakesRecvWr(std::span<const std::uint8_t> msg)
    {
        return !msg.empty() &&
               msg[0] == static_cast<std::uint8_t>(net::RdmaOpcode::Send);
    }

    // --- inet::UdpEndpoint --------------------------------------------
    void
    udpDeliver(std::vector<std::uint8_t> &&msg,
               const inet::SockAddr &from) override
    {
        nic.engineFor(type).datagramDeliver(*this, std::move(msg),
                                            from);
    }

    // --- TcpObserver --------------------------------------------------
    void
    onConnected(inet::TcpConnection &) override
    {
        if (connectDone) {
            auto cb = std::move(connectDone);
            nic.schedule(nic.fw_.busyUntil(), [cb] { cb(true); });
        }
        if (acceptDone) {
            auto cb = std::move(acceptDone);
            const QpNum qp = num;
            nic.schedule(nic.fw_.busyUntil(), [cb, qp] { cb(qp); });
        }
    }

    bool
    canAcceptMessage(inet::TcpConnection &,
                     std::span<const std::uint8_t> payload) override
    {
        // One-sided ops and responses consume no receive WR: peek the
        // framing opcode and wave anything but a Send through.
        if (rdmaWindow > 0 && !rdmaTakesRecvWr(payload))
            return true;
        if (!recvWrAvailable()) {
            if (srq != nullptr)
                nic.srqRnrHolds.inc();
            return false;
        }
        if (rdmaWindow > 0) {
            ++recv->reserved;
            ++recvReserved;
        }
        return true;
    }

    void
    onMessage(inet::TcpConnection &conn_ref,
              std::vector<std::uint8_t> &&msg) override
    {
        if (rdmaWindow > 0) {
            nic.rcEngine_->handleRdmaMessage(*this, std::move(msg),
                                             conn_ref.tuple().remote);
            return;
        }
        nic.receiveIntoWr(*this, std::move(msg),
                          conn_ref.tuple().remote);
    }

    void
    onMessageAcked(inet::TcpConnection &, std::uint64_t tag) override
    {
        if (inflightSends.empty() || inflightSends.front().tag != tag)
            sim::panic("qp%u: send completion out of order", num);
        Inflight fly = std::move(inflightSends.front());
        inflightSends.pop_front();
        nic.touchQpContext(num);
        // Table 3 "Update" (ACK): WR status + QP state writeback.
        nic.fw_.charge(FwStage::UpdateRx, nic.costs().updateRxAck);
        if (fly.kind != TxKind::Send) {
            // One-sided requests complete on their response;
            // firmware responses carry no WR at all.
            return;
        }
        nic.completeWr(*this, true, fly.wr.id, fly.wr.opcode,
                       WcStatus::Success, fly.wr.sge.length);
    }

    void
    onPeerClosed(inet::TcpConnection &conn_ref) override
    {
        // A QP channel is torn down as a unit: answer the peer's FIN
        // with our own so the connection fully closes and outstanding
        // WRs flush.
        conn_ref.close();
    }

    void
    onReset(inet::TcpConnection &) override
    {
        if (connectDone) {
            auto cb = std::move(connectDone);
            nic.schedule(nic.curTick(), [cb] { cb(false); });
        }
        nic.flushQp(*this, WcStatus::RemoteReset);
    }

    void
    onClosed(inet::TcpConnection &) override
    {
        nic.flushQp(*this, WcStatus::Flushed);
    }

    void
    onReceiveStateChanged(inet::TcpConnection &) override
    {
        nic.srqRekey(*this);
    }

    std::uint32_t
    receiveWindow(inet::TcpConnection &) override
    {
        // Posted receive-WR bytes (own ring or the shared queue's),
        // plus the standing one-sided window on RDMA-enabled QPs so
        // Write/Read traffic flows with zero WRs posted.
        return static_cast<std::uint32_t>(std::min<std::uint64_t>(
            recv->postedBytes + rdmaWindow, 0xffffffffull));
    }
};

} // namespace qpip::nic
