/**
 * @file
 * Partitions and mailboxes: the sharding primitives of the
 * deterministic parallel engine (see parallel_engine.hh).
 *
 * A Partition owns a private EventQueue and a private Random stream;
 * during one barrier epoch it is executed by exactly one worker
 * thread, so everything bound to a partition runs single-threaded.
 * Cross-partition communication goes through Mailbox: the source
 * partition appends closures to the edge's local batch buffer, and
 * the engine sorts and merges all batches at the epoch barrier in one
 * deterministic (tick, seq, source partition id) pass — so the
 * resulting schedule is independent of thread count and interleaving.
 *
 * Every edge carries its own lookahead, fixed when the engine creates
 * it (the minimum delivery latency of the links it carries), and
 * every partition carries the horizon of the epoch it is currently
 * running. A post below the *destination's* horizon means the
 * destination may already have executed past the delivery tick — a
 * causality violation — and panics with enough context to debug at
 * thousand-host scale.
 *
 * The thread-local ExecContext lets objects constructed *while a
 * partition is executing* (e.g. a TCP connection spun up by an
 * accept) bind to the creating partition's queue and RNG instead of
 * the simulation-global ones.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace qpip::sim {

class Mailbox;
class ParallelEngine;

/**
 * Which partition (if any) the current thread is executing: the event
 * queue and RNG stream that SimObjects constructed on this thread
 * bind to.
 */
struct ExecContext
{
    EventQueue *eq = nullptr;
    Random *rng = nullptr;
};

namespace detail {

/** The calling thread's execution context (nullptr outside epochs). */
ExecContext *currentExecContext();
void setCurrentExecContext(ExecContext *ctx);

} // namespace detail

/** RAII installer for the thread-local ExecContext. */
class ExecContextScope
{
  public:
    explicit ExecContextScope(ExecContext *ctx)
        : prev_(detail::currentExecContext())
    {
        detail::setCurrentExecContext(ctx);
    }

    ~ExecContextScope() { detail::setCurrentExecContext(prev_); }

    ExecContextScope(const ExecContextScope &) = delete;
    ExecContextScope &operator=(const ExecContextScope &) = delete;

  private:
    ExecContext *prev_;
};

/**
 * One shard of the simulation: a private event-queue slab plus a
 * private RNG stream.
 */
class Partition
{
  public:
    Partition(std::uint32_t id, std::string name, std::uint64_t seed);

    Partition(const Partition &) = delete;
    Partition &operator=(const Partition &) = delete;

    std::uint32_t id() const { return id_; }
    const std::string &name() const { return name_; }

    EventQueue &eventQueue() { return eq_; }
    Random &rng() { return rng_; }
    ExecContext &execContext() { return ctx_; }

    /** Next mailbox message sequence number (deterministic). */
    std::uint64_t nextMailSeq() { return mailSeq_++; }

    /**
     * This partition's safe frontier (engine-set at each barrier):
     * the monotone maximum of every epoch bound the engine has ever
     * computed for it. The partition's clock never exceeds it, no
     * cross-partition message may be addressed below it, and each
     * epoch runs it to min(frontier, run deadline). Monotone on
     * purpose: the per-epoch bound itself can dip (the conservative
     * floor of a neighbor drops when an injection wakes the neighbor
     * early), but a bound once proven stays proven — every future
     * post still arrives at or beyond it.
     */
    Tick epochHorizon() const { return horizon_; }

  private:
    friend class Mailbox;
    friend class ParallelEngine;

    std::uint32_t id_;
    std::string name_;
    EventQueue eq_;
    Random rng_;
    ExecContext ctx_;
    std::uint64_t mailSeq_ = 0;
    /** Written by the engine between epochs (mutex-ordered). */
    Tick horizon_ = 0;
    /** This epoch's run bound: min(horizon_, run deadline). */
    Tick runTo_ = 0;
    /**
     * Outgoing mailboxes with pending posts. Same ownership rule as
     * the batch buffers themselves: touched only by this partition's
     * executing worker during an epoch and by the engine's barrier
     * (mutex-ordered) between them. Lets the barrier visit only the
     * edges that were actually posted to instead of scanning every
     * mailbox in the fabric.
     */
    std::vector<Mailbox *> dirtyOut_;
};

/**
 * A one-way cross-partition channel. Only the source partition's
 * executing thread may post; posts accumulate in a local batch buffer
 * with no synchronization, and the engine sorts and merges all
 * batches at the epoch barrier (all workers parked). Posted
 * timestamps must be at or beyond the *destination's* epoch horizon —
 * that is exactly the conservative lookahead guarantee the engine's
 * synchronization window rests on, so a violation is a simulator bug
 * and panics.
 */
class Mailbox
{
  public:
    /** Created by ParallelEngine::mailbox. @pre lookahead >= 1 tick. */
    Mailbox(Partition &src, Partition &dst, Tick lookahead)
        : src_(src), dst_(dst), lookahead_(lookahead)
    {}

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    Partition &src() { return src_; }
    Partition &dst() { return dst_; }

    /**
     * This edge's lookahead: a lower bound on the delivery latency of
     * every message posted through it (the minimum over the links it
     * carries).
     */
    Tick lookahead() const { return lookahead_; }

    /** Post a closure for delivery at @p when in the destination. */
    template <typename F>
    void
    post(Tick when, F &&fn)
    {
        if (when < dst_.epochHorizon()) [[unlikely]]
            panicBelowHorizon(when);
        if (msgs_.empty())
            src_.dirtyOut_.push_back(this);
        msgs_.push_back(Msg{when, src_.nextMailSeq(),
                            std::function<void()>(std::forward<F>(fn))});
    }

  private:
    friend class ParallelEngine;

    struct Msg
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    /**
     * Sort the pending batch by (when, seq) — a strict total order,
     * seq streams are per-source. Called once per batch, at the
     * barrier.
     */
    void sortBatch();

    [[noreturn]] void panicBelowHorizon(Tick when) const;

    Partition &src_;
    Partition &dst_;
    Tick lookahead_;
    std::vector<Msg> msgs_;
};

} // namespace qpip::sim
