/**
 * @file
 * The unreliable-datagram (UD) transport engine: one QP message per
 * UDP datagram, fire-and-forget. Moved verbatim from the pre-split
 * QpipNic — wire format and stage charge sequence are byte- and
 * timing-identical.
 */

#pragma once

#include "nic/transport/transport_engine.hh"

namespace qpip::nic {

class UdEngine : public TransportEngine
{
  public:
    using TransportEngine::TransportEngine;

    /** Wrap the payload in UDP/IP and complete the WR immediately. */
    void transmit(QpipNic::QpContext &qp, SendWr wr,
                  std::vector<std::uint8_t> data) override;

    /** Land the datagram in a posted WR, or drop it (unreliable). */
    void datagramDeliver(QpipNic::QpContext &qp,
                         std::vector<std::uint8_t> &&msg,
                         const inet::SockAddr &from) override;

    /** Install / remove the UDP port demux entry. */
    void bound(QpipNic::QpContext &qp) override;
    void unbound(QpipNic::QpContext &qp) override;

  protected:
    /**
     * Build UDP Hdr (charged under the header-build stage) and hand
     * @p payload, addressed from @p qp to @p to, to IP output.
     */
    inet::IpSendResult emitUdp(QpipNic::QpContext &qp,
                               const inet::SockAddr &to,
                               std::span<const std::uint8_t> payload);
};

} // namespace qpip::nic
