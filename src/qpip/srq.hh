/**
 * @file
 * Shared receive queue: one receive-WR pool feeding many QPs. The
 * ring lives in host memory like a QP's own receive ring; posting
 * rings a dedicated SRQ doorbell, and the NIC consumes WRs from the
 * shared ring in arrival order across all attached QPs. This is the
 * standard verbs answer to per-QP receive-buffer footprint once the
 * QP count grows past what per-connection posting can feed.
 */

#pragma once

#include <memory>
#include <span>

#include "nic/qp_state.hh"
#include "qpip/memory_region.hh"

namespace qpip::nic {
class QpipNic;
} // namespace qpip::nic

namespace qpip::verbs {

class Provider;
struct RecvWrSpec;

/**
 * A shared receive queue.
 */
class SharedReceiveQueue
{
  public:
    SharedReceiveQueue(Provider &provider, std::size_t max_wr);
    ~SharedReceiveQueue();

    SharedReceiveQueue(const SharedReceiveQueue &) = delete;
    SharedReceiveQueue &operator=(const SharedReceiveQueue &) = delete;

    nic::SrqNum num() const { return num_; }

    /**
     * Post a receive WR to the shared ring.
     * @return false if the ring is full.
     */
    bool postRecv(std::uint64_t wr_id, const MemoryRegion &mr,
                  std::size_t offset, std::size_t length);

    /**
     * Post a chain of receive WRs with a single SRQ doorbell ring.
     * All-or-nothing: @return false (posting nothing) if the chain
     * would not fit; an empty chain is a no-op returning true.
     */
    bool postRecvList(std::span<const RecvWrSpec> wrs);

    /** WRs currently posted (host-side view). */
    std::size_t depth() const { return ring_.size(); }

  private:
    Provider &provider_;
    nic::QpipNic &nic_;
    /** Expired once the NIC is destroyed (skip teardown calls). */
    std::weak_ptr<void> nicAlive_;
    std::size_t maxWr_;
    nic::RecvRing ring_;
    nic::SrqNum num_ = nic::invalidSrq;
};

} // namespace qpip::verbs
