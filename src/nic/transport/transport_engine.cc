#include "nic/transport/transport_engine.hh"

#include "nic/transport/qp_context.hh"

namespace qpip::nic {

void
TransportEngine::datagramDeliver(QpipNic::QpContext &qp,
                                 std::vector<std::uint8_t> &&,
                                 const inet::SockAddr &)
{
    sim::panic("qp%u: datagram delivered to a non-datagram transport",
               qp.num);
}

void
TransportEngine::bound(QpipNic::QpContext &)
{
}

void
TransportEngine::unbound(QpipNic::QpContext &)
{
}

void
TransportEngine::recvReplenished(QpipNic::QpContext &qp)
{
    // Connected service: the receive window just grew; any message
    // the TCP engine held back may be deliverable now.
    if (qp.conn)
        qp.conn->onReceiveWindowGrew();
}

std::uint64_t
TransportEngine::replenishThreshold(const QpipNic::QpContext &qp) const
{
    if (!qp.conn)
        return neverReplenishes;
    const std::uint64_t w = qp.conn->windowGrowthThreshold();
    if (w == inet::TcpConnection::windowNeverActs)
        return neverReplenishes;
    // The window is min(postedBytes + rdmaWindow, 2^32 - 1) and w is
    // below the clamp, so the window reaches w exactly when the posted
    // bytes reach w - rdmaWindow.
    return w > qp.rdmaWindow ? w - qp.rdmaWindow : 0;
}

void
TransportEngine::flushed(QpipNic::QpContext &, WcStatus)
{
}

} // namespace qpip::nic
