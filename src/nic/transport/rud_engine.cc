#include "nic/transport/rud_engine.hh"

#include <algorithm>

#include "net/serialize.hh"
#include "nic/transport/qp_context.hh"
#include "sim/simulation.hh"

namespace qpip::nic {

RudEngine::Peer &
RudEngine::peerFor(const QpContext &qp, const inet::SockAddr &peer)
{
    return state_[qp.num].peers[peer];
}

void
RudEngine::transmit(QpContext &qp, SendWr wr,
                    std::vector<std::uint8_t> data)
{
    Peer &p = peerFor(qp, wr.remote);
    if (!p.blocked.empty() || p.window.size() >= windowLimit) {
        // Window full: park the staged WR; the ack that opens the
        // window drains the queue in order.
        p.blocked.push_back({wr, std::move(data)});
        return;
    }
    emitData(qp, p, wr, std::move(data));
}

void
RudEngine::emitData(QpContext &qp, Peer &p, SendWr wr,
                    std::vector<std::uint8_t> data)
{
    net::RudHeader h;
    h.opcode = net::RudOpcode::Data;
    h.seq = p.nextSeq;
    h.ack = p.expectedSeq - 1;

    nic_.fw_.charge(FwStage::RudExec,
                    nic_.params_.costs.rudHeaderBuild);
    auto frame = net::serializeRudMessage(h, data);

    // Oversize checks mirror the UD path: probe before committing a
    // sequence number so a rejected WR leaves no hole in the stream.
    const auto res = emitUdp(qp, wr.remote, frame);
    nic_.fw_.charge(FwStage::UpdateTx,
                    nic_.params_.costs.updateTxData);
    if (res == inet::IpSendResult::MsgSize) {
        nic_.completeWr(qp, true, wr.id, wr.opcode,
                        WcStatus::LengthError, wr.sge.length);
        return;
    }
    p.window.push_back({h.seq, wr, std::move(frame)});
    ++p.nextSeq;
    if (!p.rto.pending())
        armRto(qp, p, wr.remote);
}

void
RudEngine::datagramDeliver(QpContext &qp,
                           std::vector<std::uint8_t> &&msg,
                           const inet::SockAddr &from)
{
    nic_.fw_.charge(FwStage::RudExec, nic_.params_.costs.rudParse);
    net::RudHeader h;
    std::span<const std::uint8_t> payload;
    if (!net::parseRudMessage(msg, h, payload)) {
        nic_.rudMalformed.inc();
        return;
    }
    QpPeers &qs = state_[qp.num];
    Peer &p = qs.peers[from];
    processAck(qp, p, from, h.ack);
    if (h.opcode == net::RudOpcode::Ack)
        return;

    if (h.seq != p.expectedSeq || qs.holding.contains(from)) {
        // Go-back-N receiver: anything but the next in-order
        // sequence is dropped; the sender's timer recovers it. A
        // duplicate of old data still earns an ack so a sender whose
        // acks were lost can advance.
        nic_.rudSeqDrops.inc();
        if (h.seq < p.expectedSeq)
            sendAck(qp, p, from);
        return;
    }
    if (!qp.recvWrAvailable()) {
        // Receiver-not-ready: reliable service must not drop
        // in-order data. Park it (one datagram per peer — go-back-N
        // admits no more) and withhold the ack; delivery resumes
        // from recvReplenished().
        if (qp.srq != nullptr)
            nic_.srqRnrHolds.inc();
        else
            nic_.rudRnrHolds.inc();
        p.held.assign(payload.begin(), payload.end());
        qs.holding.insert(from);
        nic_.srqRekey(qp);
        return;
    }
    ++p.expectedSeq;
    nic_.receiveIntoWr(
        qp, std::vector<std::uint8_t>(payload.begin(), payload.end()),
        from);
    sendAck(qp, p, from);
}

void
RudEngine::processAck(QpContext &qp, Peer &p,
                      const inet::SockAddr &from, std::uint32_t ack)
{
    if (ack <= p.ackedSeq)
        return;
    nic_.fw_.charge(FwStage::RudExec,
                    nic_.params_.costs.rudAckProcess);
    p.ackedSeq = ack;
    while (!p.window.empty() && p.window.front().seq <= ack) {
        const SendWr &wr = p.window.front().wr;
        nic_.completeWr(qp, true, wr.id, wr.opcode, WcStatus::Success,
                        wr.sge.length);
        p.window.pop_front();
    }
    // Forward progress resets the backoff and restarts the timer
    // for whatever is still outstanding.
    p.rtoShift = 0;
    if (p.rto.pending())
        p.rto.cancel();
    if (!p.window.empty())
        armRto(qp, p, from);
    while (!p.blocked.empty() && p.window.size() < windowLimit) {
        PendingSend ps = std::move(p.blocked.front());
        p.blocked.pop_front();
        emitData(qp, p, ps.wr, std::move(ps.data));
    }
}

void
RudEngine::sendAck(QpContext &qp, Peer &p, const inet::SockAddr &to)
{
    nic_.fw_.charge(FwStage::RudExec,
                    nic_.params_.costs.rudAckBuild);
    net::RudHeader h;
    h.opcode = net::RudOpcode::Ack;
    h.ack = p.expectedSeq - 1;
    emitUdp(qp, to, net::serializeRudMessage(h, {}));
    nic_.fw_.charge(FwStage::UpdateTx,
                    nic_.params_.costs.updateTxAck);
    nic_.rudAcksSent.inc();
}

void
RudEngine::armRto(const QpContext &qp, Peer &p,
                  const inet::SockAddr &to)
{
    const auto &tcp = nic_.params_.tcp;
    const std::uint32_t shift = std::min<std::uint32_t>(p.rtoShift, 16);
    const sim::Tick delay =
        std::min(tcp.maxRto, tcp.minRto << shift);
    p.rto = nic_.scheduleTimer(
        delay, [this, num = qp.num, to]() { rtoFire(num, to); });
}

void
RudEngine::rtoFire(QpNum qp, const inet::SockAddr &to)
{
    QpContext *ctx = nic_.lookupQp(qp);
    if (ctx == nullptr)
        return;
    auto qit = state_.find(qp);
    if (qit == state_.end())
        return;
    auto pit = qit->second.peers.find(to);
    if (pit == qit->second.peers.end())
        return;
    Peer &p = pit->second;
    if (p.window.empty())
        return;
    if (p.rtoShift < 16)
        ++p.rtoShift;
    // Go-back-N: re-emit the whole unacked window. The retained
    // frames carry their original (possibly stale) piggybacked acks;
    // cumulative acks make that harmless.
    for (const Unacked &u : p.window) {
        nic_.rudRetransmits.inc();
        emitUdp(*ctx, to, u.frame);
        nic_.fw_.charge(FwStage::UpdateTx,
                        nic_.params_.costs.updateTxData);
    }
    armRto(*ctx, p, to);
}

void
RudEngine::recvReplenished(QpContext &qp)
{
    auto qit = state_.find(qp.num);
    if (qit == state_.end())
        return;
    // Holding peers only, in address order.
    auto &holding = qit->second.holding;
    while (!holding.empty() && qp.recvWrAvailable()) {
        const inet::SockAddr addr = *holding.begin();
        holding.erase(holding.begin());
        Peer &p = qit->second.peers.at(addr);
        ++p.expectedSeq;
        nic_.receiveIntoWr(qp, std::move(p.held), addr);
        p.held = {};
        sendAck(qp, p, addr);
    }
}

std::uint64_t
RudEngine::replenishThreshold(const QpContext &qp) const
{
    auto qit = state_.find(qp.num);
    return qit != state_.end() && !qit->second.holding.empty()
               ? 0
               : neverReplenishes;
}

void
RudEngine::flushed(QpContext &qp, WcStatus status)
{
    auto qit = state_.find(qp.num);
    if (qit == state_.end())
        return;
    for (auto &[addr, p] : qit->second.peers) {
        if (p.rto.pending())
            p.rto.cancel();
        for (const Unacked &u : p.window)
            nic_.completeWr(qp, true, u.wr.id, u.wr.opcode, status);
        for (const PendingSend &ps : p.blocked)
            nic_.completeWr(qp, true, ps.wr.id, ps.wr.opcode, status);
    }
    state_.erase(qit);
    nic_.srqRekey(qp);
}

} // namespace qpip::nic
