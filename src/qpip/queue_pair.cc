#include "qpip/queue_pair.hh"

#include "qpip/completion_queue.hh"
#include "qpip/provider.hh"
#include "qpip/srq.hh"
#include "sim/logging.hh"

namespace qpip::verbs {

QueuePair::QueuePair(Provider &provider, nic::QpType type,
                     std::shared_ptr<CompletionQueue> scq,
                     std::shared_ptr<CompletionQueue> rcq,
                     QpAttrs attrs)
    : provider_(provider), nic_(provider.nic()),
      nicAlive_(provider.nic().lifeToken()), type_(type),
      scq_(std::move(scq)), rcq_(std::move(rcq)),
      srq_(std::move(attrs.srq)), maxSendWr_(attrs.maxSendWr),
      maxRecvWr_(attrs.maxRecvWr), rdmaWindow_(attrs.rdmaWindowBytes)
{
    nic::QpCreateAttrs nic_attrs;
    nic_attrs.srq = srq_ ? srq_->num() : nic::invalidSrq;
    nic_attrs.rdmaWindowBytes = rdmaWindow_;
    num_ = nic_.createQp(
        type_, &rings_, scq_ ? &scq_->ring() : nullptr,
        rcq_ ? &rcq_->ring() : nullptr, nic_attrs);
}

QueuePair::~QueuePair()
{
    if (!nicAlive_.expired())
        nic_.destroyQp(num_);
}

void
QueuePair::bind(std::uint16_t port)
{
    provider_.nic().bindLocal(num_, port);
}

void
QueuePair::connect(const inet::SockAddr &remote, ConnectCb cb)
{
    provider_.nic().connect(num_, remote, std::move(cb));
}

void
QueuePair::accept(std::uint16_t port, std::function<void()> cb)
{
    provider_.nic().acceptOn(port, num_,
                             [cb = std::move(cb)](nic::QpNum) {
                                 if (cb)
                                     cb();
                             });
}

void
QueuePair::disconnect()
{
    provider_.nic().disconnect(num_);
}

bool
QueuePair::postSendChain(std::span<const nic::SendWr> wrs)
{
    for (const auto &wr : wrs) {
        if (rdmaWindow_ == 0 && wr.opcode != nic::WrOpcode::Send)
            sim::panic("qp%u: one-sided post on a QP without "
                       "rdmaWindowBytes", num_);
    }
    if (wrs.empty())
        return true;
    if (rings_.sendQ.size() + wrs.size() > maxSendWr_)
        return false;
    provider_.host().os().charge(
        provider_.costs().postSend +
        provider_.costs().postSendChained *
            static_cast<sim::Cycles>(wrs.size() - 1));
    for (const nic::SendWr &wr : wrs)
        rings_.sendQ.push_back(wr);
    provider_.nic().ringDoorbell(
        {num_, true, false, static_cast<std::uint32_t>(wrs.size())});
    return true;
}

bool
QueuePair::postSend(std::uint64_t wr_id, const MemoryRegion &mr,
                    std::size_t offset, std::size_t length,
                    const inet::SockAddr &remote)
{
    const nic::SendWr wr{wr_id, nic::WrOpcode::Send,
                         mr.sge(offset, length), remote};
    return postSendChain({&wr, 1});
}

bool
QueuePair::postSendList(std::span<const SendWrSpec> wrs)
{
    chain_.clear();
    for (const auto &spec : wrs) {
        chain_.push_back({spec.wrId, nic::WrOpcode::Send,
                          spec.mr->sge(spec.offset, spec.length),
                          spec.remote});
    }
    return postSendChain(chain_);
}

bool
QueuePair::postWrite(std::uint64_t wr_id, const MemoryRegion &mr,
                     std::size_t offset, std::size_t length,
                     nic::MrKey rkey, std::uint64_t raddr)
{
    const nic::SendWr wr{wr_id, nic::WrOpcode::RdmaWrite,
                         mr.sge(offset, length), {}, raddr, rkey};
    return postSendChain({&wr, 1});
}

bool
QueuePair::postRead(std::uint64_t wr_id, const MemoryRegion &mr,
                    std::size_t offset, std::size_t length,
                    nic::MrKey rkey, std::uint64_t raddr)
{
    const nic::SendWr wr{wr_id, nic::WrOpcode::RdmaRead,
                         mr.sge(offset, length), {}, raddr, rkey};
    return postSendChain({&wr, 1});
}

bool
QueuePair::postRecv(std::uint64_t wr_id, const MemoryRegion &mr,
                    std::size_t offset, std::size_t length)
{
    const RecvWrSpec wr{wr_id, &mr, offset, length};
    return postRecvList({&wr, 1});
}

bool
QueuePair::postRecvList(std::span<const RecvWrSpec> wrs)
{
    if (srq_)
        sim::panic("qp%u: receive post on an SRQ-attached QP", num_);
    return postRecvChain(provider_, rings_.recvQ, maxRecvWr_, wrs,
                         {num_, false, false, 0});
}

bool
postRecvChain(Provider &provider, nic::RecvRing &ring,
              std::size_t max_wr, std::span<const RecvWrSpec> wrs,
              nic::Doorbell db)
{
    if (wrs.empty())
        return true;
    if (ring.size() + wrs.size() > max_wr)
        return false;
    provider.host().os().charge(
        provider.costs().postRecv +
        provider.costs().postRecvChained *
            static_cast<sim::Cycles>(wrs.size() - 1));
    for (const auto &spec : wrs)
        ring.push_back({spec.wrId, spec.mr->sge(spec.offset, spec.length)});
    db.wrCount = static_cast<std::uint32_t>(wrs.size());
    provider.nic().ringDoorbell(db);
    return true;
}

} // namespace qpip::verbs
