/**
 * @file
 * The QP context cache: models the LANai's on-board SRAM as a finite
 * home for QP state blocks. The prototype keeps every QP context
 * resident (its workloads use a handful of QPs); at SAN server scale
 * the working set outgrows the SRAM and each touch of a non-resident
 * QP costs a host-memory fetch, plus a writeback of the context it
 * displaces. The cache is a strict LRU kept as an intrusive list
 * threaded through a dense array indexed by QP number (QP numbers are
 * handed out densely and never reused), so a hit or a miss is a few
 * index updates and allocates nothing, and replay and
 * parallel-partition runs see identical hit/miss sequences.
 *
 * Capacity is a count of context blocks. Every firmware stage that
 * touches a context may modify it, so every resident block is treated
 * as dirty: each eviction owes one writeback.
 *
 * A capacity of zero disables the model entirely: every touch hits
 * and nothing is ever charged, which is also the timing behaviour of
 * a warm cache that never overflows — the paper-config calibration
 * tests assert the two are byte-identical.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "nic/qp_state.hh"
#include "sim/stats.hh"

namespace qpip::nic {

/**
 * Deterministic LRU set of resident QP contexts.
 */
class QpContextCache
{
  public:
    /** Result of touching (or installing) one QP context. */
    struct Touch
    {
        bool hit = true;
        /** An LRU context was displaced and owes a writeback. */
        bool writeback = false;
    };

    /** Hold up to @p capacity contexts (zero disables the model). */
    explicit QpContextCache(std::size_t capacity) : capacity_(capacity) {}

    bool enabled() const { return capacity_ > 0; }
    std::size_t size() const { return size_; }

    /**
     * Reference @p qp's context (any firmware stage that reads or
     * writes QP state). A resident context moves to the MRU position;
     * a non-resident one is fetched, displacing the LRU entry when
     * the cache is full. With the model disabled this is a no-op hit.
     */
    Touch
    touch(QpNum qp)
    {
        Touch t;
        if (!enabled())
            return t;
        if (resident(qp)) {
            unlink(qp);
            linkMru(qp);
            hits.inc();
            return t;
        }
        t.hit = false;
        insertMru(qp, t);
        misses.inc();
        return t;
    }

    /**
     * Install @p qp at creation time (the management FSM warms the
     * context it just built). Unlike touch() this counts nothing but
     * the eviction it may force.
     */
    Touch
    install(QpNum qp)
    {
        Touch t;
        if (!enabled() || resident(qp))
            return t;
        insertMru(qp, t);
        return t;
    }

    /** Drop @p qp on destroy (no writeback — the state is dead). */
    void
    remove(QpNum qp)
    {
        if (resident(qp))
            unlink(qp);
    }

    sim::Counter hits;
    sim::Counter misses;
    sim::Counter evictions;

  private:
    /**
     * One QP's place in the LRU list. Slot invalidQp (0, never a real
     * QP) is the list head: its next is the MRU context, its prev the
     * LRU one, so the list is circular and needs no end cases.
     */
    struct Link
    {
        QpNum prev = invalidQp;
        QpNum next = invalidQp;
        bool resident = false;
    };

    bool
    resident(QpNum qp) const
    {
        return qp < links_.size() && links_[qp].resident;
    }

    void
    unlink(QpNum qp)
    {
        Link &l = links_[qp];
        links_[l.prev].next = l.next;
        links_[l.next].prev = l.prev;
        l.resident = false;
        --size_;
    }

    /** @pre links_ covers @p qp and @p qp is not resident. */
    void
    linkMru(QpNum qp)
    {
        Link &l = links_[qp];
        l.prev = invalidQp;
        l.next = links_[invalidQp].next;
        links_[l.next].prev = qp;
        links_[invalidQp].next = qp;
        l.resident = true;
        ++size_;
    }

    void
    insertMru(QpNum qp, Touch &t)
    {
        if (size_ >= capacity_) {
            unlink(links_[invalidQp].prev);
            evictions.inc();
            t.writeback = true;
        }
        if (qp >= links_.size())
            links_.resize(qp + 1); // geometric: QP numbers are dense
        linkMru(qp);
    }

    std::size_t capacity_;
    std::size_t size_ = 0;
    /** Indexed by QP number; [invalidQp] is the list head. */
    std::vector<Link> links_ = std::vector<Link>(1);
};

} // namespace qpip::nic
