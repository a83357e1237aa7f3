/**
 * @file
 * Parallel-engine unit tests at the sim layer: partition execution,
 * deterministic mailbox merge order, conservative epoch windows,
 * thread-count invariance of the schedule, execution-context binding
 * and Simulation delegation. These run threads>1 paths and are part
 * of the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_engine.hh"
#include "sim/partition.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

using namespace qpip;
using sim::Tick;

TEST(Partition, OwnsPrivateQueueAndRng)
{
    sim::Simulation simu(9);
    sim::ParallelEngine eng(simu, 1);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    EXPECT_NE(&a.eventQueue(), &b.eventQueue());
    EXPECT_NE(&a.rng(), &b.rng());
    EXPECT_NE(&a.eventQueue(), &simu.eventQueue());
    // Distinct deterministic streams.
    EXPECT_NE(a.rng().next(), b.rng().next());
    EXPECT_EQ(a.eventQueue().label(), "a");
    EXPECT_EQ(eng.findPartition("b"), &b);
    EXPECT_EQ(eng.findPartition("zzz"), nullptr);
}

TEST(ParallelEngine, RunsPartitionEventsToCompletion)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    int ran_a = 0;
    int ran_b = 0;
    a.eventQueue().schedule(10, [&] { ++ran_a; });
    a.eventQueue().schedule(20, [&] { ++ran_a; });
    b.eventQueue().schedule(15, [&] { ++ran_b; });
    const auto n = eng.run();
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(ran_a, 2);
    EXPECT_EQ(ran_b, 1);
    EXPECT_EQ(eng.executed(), 3u);
}

TEST(ParallelEngine, RunUntilStopsAndAlignsClocks)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    int ran = 0;
    a.eventQueue().schedule(5, [&] { ++ran; });
    a.eventQueue().schedule(100, [&] { ++ran; });
    eng.runUntil(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eng.now(), 50u);
    // Idle partitions advance to the stop tick too.
    EXPECT_EQ(a.eventQueue().now(), 50u);
    EXPECT_EQ(b.eventQueue().now(), 50u);
    eng.run();
    EXPECT_EQ(ran, 2);
}

TEST(ParallelEngine, MailboxMergeOrderIsDeterministic)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    auto &ac = eng.mailbox(a, c, 50);
    auto &bc = eng.mailbox(b, c, 50);

    // Only partition c's events touch `order`.
    std::vector<std::string> order;
    a.eventQueue().schedule(0, [&] {
        ac.post(100, [&order] { order.push_back("a.s0"); });
        ac.post(100, [&order] { order.push_back("a.s1"); });
        ac.post(60, [&order] { order.push_back("a.early"); });
    });
    b.eventQueue().schedule(0, [&] {
        bc.post(100, [&order] { order.push_back("b.s0"); });
        bc.post(60, [&order] { order.push_back("b.early"); });
    });
    eng.run();

    // (tick, seq, srcId): ties on tick fall back to the per-source
    // post sequence, then the source partition id. At tick 60,
    // a.early is a's third post (seq 2) while b.early is b's second
    // (seq 1), so b goes first. At tick 100, a.s0 and b.s0 are both
    // seq 0 in their streams, so partition a (id 0) breaks that tie,
    // and a.s1 (seq 1) follows both.
    const std::vector<std::string> expect = {
        "b.early", "a.early", "a.s0", "b.s0", "a.s1"};
    EXPECT_EQ(order, expect);
}

namespace {

/** Artifacts of one bounce run; must not depend on thread count. */
struct BounceDigest
{
    std::vector<std::pair<std::uint32_t, Tick>> hits;
    std::vector<std::uint64_t> draws;
    std::uint64_t executed = 0;
    std::uint64_t epochs = 0;
    Tick end = 0;

    bool
    operator==(const BounceDigest &o) const
    {
        return hits == o.hits && draws == o.draws &&
               executed == o.executed && epochs == o.epochs &&
               end == o.end;
    }
};

/**
 * Two partitions bounce a token through mailboxes for a fixed number
 * of hops, each hop recording (partition, tick) and one RNG draw.
 */
BounceDigest
runBounce(int threads)
{
    sim::Simulation simu(42);
    sim::ParallelEngine eng(simu, threads);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &ab = eng.mailbox(a, b, 100);
    auto &ba = eng.mailbox(b, a, 100);

    BounceDigest d;
    // Written only by the partition executing the hop; hops strictly
    // alternate, ordered by the mailbox barrier handoffs.
    int remaining = 16;
    std::function<void(sim::Partition *, sim::Mailbox *,
                       sim::Partition *, sim::Mailbox *)>
        hop = [&](sim::Partition *self, sim::Mailbox *out,
                  sim::Partition *peer, sim::Mailbox *back) {
            const Tick now = self->eventQueue().now();
            d.hits.emplace_back(self->id(), now);
            d.draws.push_back(self->rng().next());
            if (--remaining > 0) {
                out->post(now + 100, [&hop, peer, back, self, out] {
                    hop(peer, back, self, out);
                });
            }
        };
    a.eventQueue().schedule(0, [&] { hop(&a, &ab, &b, &ba); });
    eng.run();
    d.executed = eng.executed();
    d.epochs = eng.epochs();
    d.end = eng.now();
    return d;
}

} // namespace

TEST(ParallelEngine, ScheduleIsThreadCountInvariant)
{
    const auto serial = runBounce(1);
    const auto four = runBounce(4);
    EXPECT_EQ(serial.hits.size(), 16u);
    EXPECT_TRUE(serial == four);
    // And replays bit-identically at the same thread count.
    EXPECT_TRUE(four == runBounce(4));
}

TEST(ParallelEngine, RunUntilConditionChecksAtBarriers)
{
    sim::Simulation simu(3);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    // Mutual edges bound a's horizon: under per-edge horizons a
    // partition with no incoming edges runs clean to the deadline in
    // one epoch. L=5 both ways makes H_a = next_a + 10, so with events
    // spaced 10 apart each epoch executes exactly one.
    eng.mailbox(a, b, 5);
    eng.mailbox(b, a, 5);
    int count = 0;
    for (Tick t = 0; t < 100; t += 10)
        a.eventQueue().schedule(t, [&] { ++count; });
    // Delegation: Simulation::runUntilCondition routes to the engine.
    ASSERT_NE(simu.parallelEngine(), nullptr);
    const bool ok =
        simu.runUntilCondition([&] { return count >= 3; }, 1000);
    EXPECT_TRUE(ok);
    // The predicate fires at the barrier after the third event.
    EXPECT_EQ(count, 3);
    EXPECT_EQ(simu.now(), eng.now());
}

TEST(ParallelEngine, PerEdgeHorizonsDecoupleSlowEdges)
{
    sim::Simulation simu(7);
    sim::ParallelEngine eng(simu, 2);
    auto &fa = eng.addPartition("fa");
    auto &fb = eng.addPartition("fb");
    auto &sa = eng.addPartition("sa");
    auto &sb = eng.addPartition("sb");
    // Two disjoint pairs: the fast pair's edges declare a wide
    // lookahead, the slow pair's a narrow one.
    eng.mailbox(fa, fb, 1000);
    eng.mailbox(fb, fa, 1000);
    eng.mailbox(sa, sb, 10);
    eng.mailbox(sb, sa, 10);
    int fast = 0;
    int slow = 0;
    for (Tick t = 0; t < 100; t += 10) {
        fa.eventQueue().schedule(t, [&] { ++fast; });
        sa.eventQueue().schedule(t, [&] { ++slow; });
    }
    eng.run();
    EXPECT_EQ(fast, 10);
    EXPECT_EQ(slow, 10);
    // The slow pair paces the epoch count at H_sa = next_sa + 20
    // (two events per epoch), but the fast pair drains entirely in
    // the first epoch instead of being throttled to the global
    // minimum lookahead: 5 epochs total, not 10.
    EXPECT_EQ(eng.epochs(), 5u);
}

TEST(ParallelEngine, HorizonFloorsPropagateThroughStalledChains)
{
    sim::Simulation simu(11);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    auto &ab = eng.mailbox(a, b, 10);
    auto &bc = eng.mailbox(b, c, 10);

    // b starts empty and wakes only when a's post arrives, then
    // forwards into c below c's far-future local event. c's horizon
    // must be bounded by b's *floor* (B_a + 10), not b's next-event
    // tick (infinity): otherwise c runs its tick-1000 event in the
    // first epoch and the tick-20 delivery violates its horizon.
    std::vector<Tick> cOrder; // written only by partition c
    a.eventQueue().schedule(0, [&] {
        ab.post(10, [&] {
            bc.post(20, [&] { cOrder.push_back(c.eventQueue().now()); });
        });
    });
    c.eventQueue().schedule(1000,
                            [&] { cOrder.push_back(c.eventQueue().now()); });
    eng.run();
    const std::vector<Tick> expect = {20, 1000};
    EXPECT_EQ(cOrder, expect);
    EXPECT_EQ(eng.executed(), 4u);
}

TEST(ParallelEngine, TightestIncomingEdgeBoundsHorizon)
{
    sim::Simulation simu(13);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    // c has two incoming edges: a wide one from a and a tight one
    // from b (whose own floor tracks c through the return edge). The
    // tight edge must win: H_c = next_c + 4.
    eng.mailbox(a, c, 1000);
    eng.mailbox(b, c, 2);
    eng.mailbox(c, b, 2);
    int count = 0;
    a.eventQueue().schedule(0, [] {});
    for (Tick t = 0; t < 100; t += 10)
        c.eventQueue().schedule(t, [&] { ++count; });
    eng.run();
    EXPECT_EQ(count, 10);
    // One event per epoch; had the wide edge bounded the horizon, all
    // ten would have drained in the first.
    EXPECT_EQ(eng.epochs(), 10u);
}

TEST(ParallelEngine, MailboxKeepsTheMinimumLookahead)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 1);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    // Asking again for an existing edge (parallel links between one
    // partition pair) returns it, with the tighter of the bounds.
    auto &ab = eng.mailbox(a, b, 30);
    EXPECT_EQ(&eng.mailbox(a, b, 10), &ab);
    EXPECT_EQ(&eng.mailbox(a, b, 20), &ab);
    EXPECT_EQ(ab.lookahead(), 10u);
    ASSERT_EQ(eng.mailboxes().size(), 1u);
    EXPECT_EQ(eng.mailboxes().front().get(), &ab);
    EXPECT_DEATH(eng.mailbox(b, a, 0), "at least one tick");
}

TEST(ParallelEngine, RegistersParallelStats)
{
    sim::Simulation simu(1);
    {
        sim::ParallelEngine eng(simu, 2);
        auto &a = eng.addPartition("a");
        auto &b = eng.addPartition("b");
        auto &ab = eng.mailbox(a, b, 10);
        for (const char *leaf :
             {"parallel.epochs", "parallel.mailboxPosts",
              "parallel.batchedPosts", "parallel.horizonStalls",
              "parallel.epochEventsMax", "parallel.epochEventsMin"})
            EXPECT_TRUE(simu.stats().contains(leaf)) << leaf;
        int got = 0;
        a.eventQueue().schedule(0, [&] {
            ab.post(10, [&] { ++got; });
            ab.post(11, [&] { ++got; });
        });
        eng.run();
        EXPECT_EQ(got, 2);
        EXPECT_EQ(simu.stats().counterValue("parallel.epochs"),
                  eng.epochs());
        EXPECT_EQ(simu.stats().counterValue("parallel.mailboxPosts"),
                  2u);
        // Both posts travelled in one batch.
        EXPECT_EQ(simu.stats().counterValue("parallel.batchedPosts"),
                  2u);
    }
    // The stat group unregisters with the engine.
    EXPECT_FALSE(simu.stats().contains("parallel.epochs"));
}

TEST(ParallelEngine, SimulationDelegatesRunCalls)
{
    sim::Simulation simu(5);
    {
        sim::ParallelEngine eng(simu, 2);
        auto &a = eng.addPartition("a");
        int ran = 0;
        a.eventQueue().schedule(7, [&] { ++ran; });
        EXPECT_EQ(simu.run(), 1u);
        EXPECT_EQ(ran, 1);
    }
    // Engine uninstalls on destruction: serial path again.
    EXPECT_EQ(simu.parallelEngine(), nullptr);
    int ran2 = 0;
    simu.eventQueue().schedule(simu.eventQueue().now() + 1,
                               [&] { ++ran2; });
    EXPECT_EQ(simu.run(), 1u);
    EXPECT_EQ(ran2, 1);
}

TEST(ParallelEngine, ExecContextBindsNewSimObjects)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 1);
    auto &a = eng.addPartition("a");
    {
        sim::ExecContextScope scope(&a.execContext());
        sim::SimObject obj(simu, "inCtx");
        EXPECT_EQ(&obj.eventQueue(), &a.eventQueue());
        EXPECT_EQ(&obj.rng(), &a.rng());
    }
    sim::SimObject out(simu, "outCtx");
    EXPECT_EQ(&out.eventQueue(), &simu.eventQueue());
    EXPECT_EQ(&out.rng(), &simu.rng());
}

TEST(ParallelEngine, AssignByPrefixRebindsMatchingObjects)
{
    sim::Simulation simu(1);
    sim::SimObject host(simu, "host0");
    sim::SimObject nic(simu, "host0.nic");
    sim::SimObject other(simu, "host01"); // prefix but no dot: no match
    sim::ParallelEngine eng(simu, 1);
    auto &p = eng.addPartition("host0");
    eng.assignByPrefix("host0", p);
    EXPECT_EQ(&host.eventQueue(), &p.eventQueue());
    EXPECT_EQ(&nic.eventQueue(), &p.eventQueue());
    EXPECT_EQ(&other.eventQueue(), &simu.eventQueue());
}

TEST(ParallelEngine, ClearAllDropsPendingWork)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    int ran = 0;
    a.eventQueue().schedule(10, [&] { ++ran; });
    eng.clearAll();
    EXPECT_EQ(eng.run(), 0u);
    EXPECT_EQ(ran, 0);
}
