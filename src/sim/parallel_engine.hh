/**
 * @file
 * A deterministic conservative parallel discrete-event engine.
 *
 * The simulation is sharded into Partitions (see partition.hh), each
 * owning a private event queue and RNG stream. Execution proceeds in
 * barrier epochs:
 *
 *   1. merge every Mailbox batch and inject the messages into the
 *      destination queues in deterministic order, sorted by
 *      (tick, seq, source partition id);
 *   2. compute per-partition horizons from per-edge lookaheads (see
 *      below) — each partition gets its own bound instead of the
 *      whole fabric marching at the pace of its slowest link;
 *   3. run every partition with runnable work up to its horizon
 *      (workers claim partitions from a shared index — which thread
 *      runs which partition is arbitrary, the outcome is not);
 *   4. barrier; repeat.
 *
 * Per-edge horizons. Every mailbox edge e = (q -> p) is created with
 * a lookahead L_e: a lower bound on the delivery latency of anything
 * posted through it. There is no engine-wide default; an edge that
 * carries several links keeps the minimum of their bounds. At each
 * barrier the engine computes, for every partition q, a conservative
 * floor B_q on the earliest tick at which q can execute *any* event
 * this epoch or later:
 *
 *     B_q = min(next_q, min over incoming e=(r->q) of B_r + L_e)
 *
 * — a shortest-path relaxation (all L_e >= 1, so the fixpoint exists
 * and rounds of edge relaxation over the partition graph reach it in
 * at most P-1 passes; fabric graphs are shallow, so two or three
 * suffice in practice). The epoch horizon of
 * p is then H_p = min over incoming e=(q->p) of B_q + L_e. Any
 * message q posts is sent by an event executing at t >= B_q and
 * arrives at t + L_e >= H_p, so injecting it at the next barrier is
 * causally exact, not an approximation; Mailbox::post asserts this
 * against the destination's horizon. Note the floor must be B_q, not
 * next_q: a neighbor stalled behind *its own* slow neighbor can
 * receive an injection below its next event and wake earlier than
 * next_q, which is exactly the multi-hop chain the relaxation
 * accounts for. Progress: the partition holding the global minimum
 * next tick N has B = N and H >= N + min L_e > N, so every epoch
 * executes at least one event.
 *
 * Each partition's horizon is kept monotone across epochs (max with
 * its previous value). The per-epoch bound alone can dip — a
 * neighbor's floor drops when an injection wakes it below its old
 * next-event tick — but a bound once proven covers every future post
 * too (the floors it was computed from remain lower bounds forever),
 * so the running maximum is still causally exact, and it is what the
 * destination's clock has actually reached. Mailbox::post asserts
 * against this monotone frontier; each epoch runs a partition to
 * min(frontier, run deadline).
 *
 * Batched posts. During an epoch each mailbox accumulates posts in a
 * local append buffer (no synchronization: only the source's worker
 * touches it). The barrier sorts each posted batch once, then
 * k-way-merges the sorted runs straight into the destination queues —
 * the same (tick, seq, srcId) total order as a global sort.
 *
 * Epoch scheduling. Every epoch, runnable partitions are claimed in
 * ascending id order from one shared index, by the worker threads and
 * the calling thread alike; a 1-thread engine takes the same
 * mutex-ordered path with no workers.
 *
 * Determinism: each partition's queue preserves the serial
 * (when, seq) total order; injection order into a queue is
 * fixed by the merge above; horizons are computed from queue state
 * alone; RNG streams are per-partition. None of that depends on the
 * number of worker threads, so an N-thread run is bit-identical to a
 * 1-thread run of the same partitioning. (A partitioned run may
 * differ from the unpartitioned serial schedule — per-partition
 * RNG/seq streams — which is why `threads=1` without an engine
 * remains the default and untouched code path.)
 *
 * This is the one place in the tree allowed to use threading
 * primitives (see qpip-lint rule T1): all protocol code stays
 * single-threaded by construction, executing inside exactly one
 * partition per epoch with mutex/condvar-ordered handoffs between
 * epochs.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/partition.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace qpip::sim {

class ParallelEngine
{
  public:
    /**
     * Install the engine on @p sim (Simulation::run* delegate here
     * until destruction). @p threads is the worker count, the calling
     * thread included: 1 executes every partition on the caller.
     */
    ParallelEngine(Simulation &sim, int threads);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Create a partition. RNG stream derives from sim seed + id. */
    Partition &addPartition(const std::string &name);

    std::size_t numPartitions() const { return parts_.size(); }
    Partition &partition(std::size_t i) { return *parts_.at(i); }
    Partition *findPartition(const std::string &name);

    /**
     * Find-or-create the src->dst mailbox with edge lookahead
     * @p lookahead. Asked again for an existing edge (several links
     * between one partition pair), the edge keeps the minimum.
     * @pre lookahead >= 1 tick.
     */
    Mailbox &mailbox(Partition &src, Partition &dst, Tick lookahead);

    /** Every cross-partition edge, in creation order. */
    const std::vector<std::unique_ptr<Mailbox>> &
    mailboxes() const
    {
        return mail_;
    }

    /**
     * Bind every registered SimObject whose name is @p prefix or
     * starts with "@p prefix." to partition @p p (its queue and RNG).
     */
    void assignByPrefix(const std::string &prefix, Partition &p);

    /**
     * Register a hook run at the end of every run*() call, after the
     * final barrier — e.g. folding per-direction link shadow counters
     * into the public ones. Hooks must be idempotent across calls
     * (fold-and-reset).
     */
    void addFoldHook(std::function<void()> fold);

    int threads() const { return threads_; }

    /** Conservative global frontier of the latest epoch. */
    Tick now() const { return now_; }

    /** Total events executed across all partitions. */
    std::uint64_t executed() const;

    /** Barrier epochs run so far (diagnostics/tests). */
    std::uint64_t epochs() const { return statEpochs_.value(); }

    /** Run until all partitions drain. @return events executed. */
    std::uint64_t run() { return runUntil(maxTick); }

    /** Run until an absolute tick. @return events executed. */
    std::uint64_t runUntil(Tick until);

    /**
     * Run until @p pred() holds — checked at every epoch barrier, the
     * parallel analogue of "after every event" — or @p deadline.
     */
    bool runUntilCondition(const std::function<bool()> &pred,
                           Tick deadline = maxTick);

    /** Discard pending events in every partition (teardown). */
    void clearAll();

    /**
     * Join the worker pool (idempotent; the destructor calls it).
     * Owners whose model objects hold event handles into partition
     * queues call this first in teardown, so the single-threaded
     * destruction of those objects still sees live queues.
     */
    void park();

  private:
    void checkRunnable();
    void injectMail();
    /** Refresh nextTick_; @return the global minimum. */
    Tick refreshNextTicks();
    /**
     * Compute per-partition horizons for the next epoch (relaxation
     * floors + incoming-edge minima), list the runnable partitions,
     * and count stalls. @return the min horizon (the epoch's
     * conservative global frontier).
     */
    Tick prepareEpoch(Tick until);
    void runEpoch();
    /** Per-epoch imbalance stats. */
    void finishEpoch();
    void claimLoop(std::unique_lock<std::mutex> &lock);
    void workerLoop();
    void foldAll();

    Simulation &sim_;
    int threads_;
    Tick now_ = 0;
    std::vector<std::unique_ptr<Partition>> parts_;
    std::vector<std::unique_ptr<Mailbox>> mail_;
    std::vector<std::function<void()>> foldHooks_;

    // Barrier scratch (sized to parts_, reused across epochs).
    std::vector<Tick> nextTick_;
    std::vector<Tick> floor_;
    /** Per-partition incoming-edge horizon bound (phase-2 scratch). */
    std::vector<Tick> hbound_;
    /**
     * The partition graph flattened for the per-epoch relaxation
     * passes (rebuilt from mail_ at the start of every run).
     */
    struct FlatEdge
    {
        std::uint32_t src;
        std::uint32_t dst;
        Tick lookahead;
    };
    std::vector<FlatEdge> edges_;
    /** Cursor into one mailbox's sorted batch (barrier merge). */
    struct RunCursor
    {
        Mailbox *mb;
        std::size_t idx;
    };
    std::vector<RunCursor> merge_;
    std::vector<std::uint64_t> prevExecuted_;
    /** Partition ids to run this epoch, ascending. */
    std::vector<std::uint32_t> runnable_;

    // Scaling observability (registered as "parallel.*"; all values
    // derive from the deterministic schedule, so they are identical
    // for any thread count).
    StatGroup statGroup_;
    Counter statEpochs_;
    Counter statMailboxPosts_;
    Counter statBatchedPosts_;
    Counter statHorizonStalls_;
    SampleStat statEpochEventsMax_;
    SampleStat statEpochEventsMin_;

    // Worker pool. All shared coordination state lives under m_; the
    // mutex handoffs order every cross-epoch access to partition
    // queues, mailboxes and counters (no atomics needed).
    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    std::uint64_t epochGen_ = 0;
    std::size_t nextPart_ = 0;
    std::size_t busy_ = 0;
    bool stop_ = false;
};

} // namespace qpip::sim
