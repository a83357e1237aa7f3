/**
 * @file
 * One-sided RDMA and shared-receive-queue tests: Write/Read round
 * trips (pcap-verified against the wire), rkey/bounds protection
 * (remote-access-error completions, untouched target memory), SRQ
 * fan-in from many QPs, SRQ exhaustion (RNR hold on reliable QPs,
 * drop accounting on UD), the reliable-datagram (RUD) shim
 * (in-order ack-gated delivery, many-peer fan-in, RNR holds instead
 * of drops on SRQ exhaustion), and the QP context cache's
 * hit/miss/evict bookkeeping in both entry and byte denominations.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/testbed.hh"
#include "net/pcap.hh"

using namespace qpip;
using namespace qpip::apps;
using verbs::Completion;
using verbs::QpAttrs;
using verbs::WcStatus;

namespace {

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 7)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed * 13 + i * 3 + 1);
    return v;
}

/** Connected RC pair with RDMA framing enabled on both ends. */
struct RdmaPair
{
    explicit RdmaPair(QpipTestbed &bed, nic::MrAccess remote_access,
                      std::size_t buf_bytes = 1 << 16,
                      std::uint32_t window = 1 << 16)
        : bed(bed)
    {
        cq0 = bed.provider(0).createCq();
        cq1 = bed.provider(1).createCq();
        buf0 = std::vector<std::uint8_t>(buf_bytes);
        buf1 = std::vector<std::uint8_t>(buf_bytes);
        mr0 = bed.provider(0).registerMemory(buf0);
        mr1 = bed.provider(1).registerMemory(buf1, remote_access);

        QpAttrs attrs;
        attrs.rdmaWindowBytes = window;
        acceptor = std::make_shared<verbs::Acceptor>(
            bed.provider(1), 700, cq1, cq1);
        acceptor->acceptOne(
            [this](std::shared_ptr<verbs::QueuePair> q) {
                qp1 = std::move(q);
            },
            attrs);
        qp0 = bed.provider(0).createQp(nic::QpType::ReliableTcp, cq0,
                                       cq0, attrs);
        bool connected = false;
        qp0->connect(bed.addr(1, 700),
                     [&](bool ok) { connected = ok; });
        bed.sim().runUntilCondition(
            [&] { return connected && qp1 != nullptr; },
            bed.sim().now() + 10 * sim::oneSec);
    }

    bool ready() const { return qp0 && qp1; }

    QpipTestbed &bed;
    std::shared_ptr<verbs::CompletionQueue> cq0, cq1;
    std::vector<std::uint8_t> buf0, buf1;
    std::shared_ptr<verbs::MemoryRegion> mr0, mr1;
    std::shared_ptr<verbs::Acceptor> acceptor;
    std::shared_ptr<verbs::QueuePair> qp0, qp1;
};

bool
awaitCompletion(QpipTestbed &bed, verbs::CompletionQueue &cq,
                Completion &out,
                sim::Tick deadline = 10 * sim::oneSec)
{
    bed.sim().runUntilCondition([&] { return cq.depth() > 0; },
                                bed.sim().now() + deadline);
    return cq.poll(out);
}

/** Tap both directions of every fabric edge. */
std::vector<std::unique_ptr<net::PcapWriter>>
tapAllEdges(net::Fabric &fabric)
{
    std::vector<std::unique_ptr<net::PcapWriter>> taps;
    for (const auto &e : fabric.edges()) {
        for (int side = 0; side < 2; ++side) {
            taps.push_back(std::make_unique<net::PcapWriter>());
            net::tapLinkSide(*e.link, side, *taps.back());
        }
    }
    return taps;
}

/** Whether @p needle occurs in any tapped capture. */
bool
capturesContain(
    const std::vector<std::unique_ptr<net::PcapWriter>> &taps,
    const std::vector<std::uint8_t> &needle)
{
    for (const auto &t : taps) {
        const auto &hay = t->bytes();
        if (std::search(hay.begin(), hay.end(), needle.begin(),
                        needle.end()) != hay.end()) {
            return true;
        }
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// One-sided round trips
// ---------------------------------------------------------------------

TEST(Rdma, WriteRoundTripPcapVerified)
{
    QpipTestbed bed(2);
    const auto taps = tapAllEdges(bed.fabric());
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(4096);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    ASSERT_TRUE(p.qp0->postWrite(42, *p.mr0, 0, msg.size(),
                                 p.mr1->key(), 256));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 42u);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaWrite);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, msg.size());

    // One-sided: the target landed at raddr with no responder CQE.
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(),
                           p.buf1.begin() + 256));
    EXPECT_EQ(p.cq1->depth(), 0u);
    EXPECT_EQ(bed.nicOf(1).rdmaWrites.value(), 1u);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 0u);

    // The payload really crossed the wire (shows up in the capture).
    EXPECT_TRUE(capturesContain(taps, msg));
}

TEST(Rdma, ReadRoundTripPcapVerified)
{
    QpipTestbed bed(2);
    const auto taps = tapAllEdges(bed.fabric());
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    const auto remote = pattern(2048, 11);
    std::copy(remote.begin(), remote.end(), p.buf1.begin() + 512);
    ASSERT_TRUE(p.qp0->postRead(43, *p.mr0, 64, remote.size(),
                                p.mr1->key(), 512));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 43u);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaRead);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, remote.size());

    EXPECT_TRUE(std::equal(remote.begin(), remote.end(),
                           p.buf0.begin() + 64));
    EXPECT_EQ(p.cq1->depth(), 0u);
    EXPECT_EQ(bed.nicOf(1).rdmaReads.value(), 1u);

    // The read data crossed the wire in the response direction.
    EXPECT_TRUE(capturesContain(taps, remote));
}

TEST(Rdma, TwoSidedSendStillWorksOnRdmaQp)
{
    QpipTestbed bed(2);
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(1024, 5);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    p.qp1->postRecv(1, *p.mr1, 0, 4096);
    p.qp0->postSend(2, *p.mr0, 0, msg.size());

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c));
    EXPECT_FALSE(c.isSend);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, msg.size());
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), p.buf1.begin()));
}

// ---------------------------------------------------------------------
// Protection: rkey / bounds / rights violations
// ---------------------------------------------------------------------

TEST(Rdma, WriteWithoutRemoteWriteRightsFails)
{
    QpipTestbed bed(2);
    // Target registered local-only: remote write must be refused.
    RdmaPair p(bed, nic::accessLocal);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(512);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    ASSERT_TRUE(
        p.qp0->postWrite(1, *p.mr0, 0, msg.size(), p.mr1->key(), 0));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaWrite);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
    // Target memory untouched.
    EXPECT_TRUE(std::all_of(p.buf1.begin(), p.buf1.end(),
                            [](std::uint8_t b) { return b == 0; }));
}

// raddr values whose range overruns a 4 KB target region: one just
// past the end, and one a hostile peer picks so that raddr + length
// wraps past 2^64 back into the region.
constexpr std::uint64_t outOfBoundsRaddrs[] = {
    4096 - 100, ~std::uint64_t{0} - 99};

TEST(Rdma, WriteOutOfBoundsFails)
{
    for (const std::uint64_t raddr : outOfBoundsRaddrs) {
        SCOPED_TRACE(raddr);
        QpipTestbed bed(2);
        RdmaPair p(bed, nic::accessRemoteRw, 4096);
        ASSERT_TRUE(p.ready());

        const auto msg = pattern(1024);
        std::copy(msg.begin(), msg.end(), p.buf0.begin());
        ASSERT_TRUE(p.qp0->postWrite(1, *p.mr0, 0, msg.size(),
                                     p.mr1->key(), raddr));

        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
        EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
        EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
        EXPECT_EQ(bed.nicOf(1).rdmaWrites.value(), 0u);
    }
}

TEST(Rdma, ReadOutOfBoundsFails)
{
    for (const std::uint64_t raddr : outOfBoundsRaddrs) {
        SCOPED_TRACE(raddr);
        QpipTestbed bed(2);
        RdmaPair p(bed, nic::accessRemoteRw, 4096);
        ASSERT_TRUE(p.ready());

        ASSERT_TRUE(p.qp0->postRead(1, *p.mr0, 0, 1024, p.mr1->key(),
                                    raddr));

        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
        EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
        EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaRead);
        EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
        EXPECT_EQ(bed.nicOf(1).rdmaReads.value(), 0u);
    }
}

TEST(Rdma, ReadWithBogusRkeyFails)
{
    QpipTestbed bed(2);
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    ASSERT_TRUE(p.qp0->postRead(9, *p.mr0, 0, 128,
                                p.mr1->key() + 999, 0));
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaRead);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
    EXPECT_EQ(bed.nicOf(1).rdmaReads.value(), 0u);
}

// ---------------------------------------------------------------------
// Shared receive queues
// ---------------------------------------------------------------------

TEST(Srq, FanInFromManyQps)
{
    QpipTestbed bed(2);
    auto &sender = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16);
    auto rmr = server.registerMemory(rbuf);

    constexpr std::size_t numQps = 8;
    constexpr std::size_t msgBytes = 256;
    // One shared pool feeds all QPs: slot i of the buffer.
    for (std::size_t i = 0; i < numQps; ++i)
        ASSERT_TRUE(srq->postRecv(100 + i, *rmr, i * 1024, 1024));
    EXPECT_EQ(srq->depth(), numQps);

    QpAttrs server_attrs;
    server_attrs.srq = srq;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    for (std::size_t i = 0; i < numQps; ++i) {
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            server_attrs);
    }

    auto ccq = sender.createCq();
    std::vector<std::uint8_t> sbuf(numQps * msgBytes);
    auto smr = sender.registerMemory(sbuf);
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    std::size_t connected = 0;
    for (std::size_t i = 0; i < numQps; ++i) {
        auto qp = sender.createQp(nic::QpType::ReliableTcp, ccq, ccq);
        qp->connect(bed.addr(1, 700),
                    [&](bool ok) { connected += ok ? 1 : 0; });
        clientQps.push_back(std::move(qp));
    }
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected == numQps; },
        bed.sim().now() + 20 * sim::oneSec));

    // Every client sends one distinct message.
    for (std::size_t i = 0; i < numQps; ++i) {
        auto msg = pattern(msgBytes, static_cast<std::uint8_t>(i));
        std::copy(msg.begin(), msg.end(),
                  sbuf.begin() + i * msgBytes);
        ASSERT_TRUE(clientQps[i]->postSend(i, *smr, i * msgBytes,
                                           msgBytes));
    }

    // All arrive as receive completions on the shared CQ.
    std::size_t received = 0;
    std::vector<bool> slotUsed(numQps, false);
    while (received < numQps) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
        if (c.isSend)
            continue;
        EXPECT_EQ(c.status, WcStatus::Success);
        EXPECT_EQ(c.byteLen, msgBytes);
        ASSERT_GE(c.wrId, 100u);
        ASSERT_LT(c.wrId, 100u + numQps);
        slotUsed[c.wrId - 100] = true;
        ++received;
    }
    // The pool drained WR-per-message, in ring order.
    EXPECT_TRUE(std::all_of(slotUsed.begin(), slotUsed.end(),
                            [](bool b) { return b; }));
    EXPECT_EQ(srq->depth(), 0u);
    EXPECT_EQ(bed.nicOf(1).srqEmptyDrops.value(), 0u);
}

TEST(Srq, ExhaustionHoldsTcpMessagesUntilReposted)
{
    QpipTestbed bed(2);
    auto &sender = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16);
    auto rmr = server.registerMemory(rbuf);
    // One 512-byte WR: enough advertised window for both messages to
    // be transmitted, but only one can land.
    ASSERT_TRUE(srq->postRecv(100, *rmr, 0, 512));

    QpAttrs server_attrs;
    server_attrs.srq = srq;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    for (int i = 0; i < 2; ++i) {
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            server_attrs);
    }

    auto ccq = sender.createCq();
    std::vector<std::uint8_t> sbuf(512);
    auto smr = sender.registerMemory(sbuf);
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    std::size_t connected = 0;
    for (int i = 0; i < 2; ++i) {
        auto qp = sender.createQp(nic::QpType::ReliableTcp, ccq, ccq);
        qp->connect(bed.addr(1, 700),
                    [&](bool ok) { connected += ok ? 1 : 0; });
        clientQps.push_back(std::move(qp));
    }
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected == 2; },
        bed.sim().now() + 20 * sim::oneSec));

    // Both clients send; the single WR serves the first arrival and
    // the second message is held un-ACKed (RNR), not dropped.
    ASSERT_TRUE(clientQps[0]->postSend(0, *smr, 0, 200));
    ASSERT_TRUE(clientQps[1]->postSend(1, *smr, 200, 200));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    while (c.isSend)
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    EXPECT_EQ(c.wrId, 100u);
    bed.sim().runFor(200 * sim::oneMs);
    EXPECT_GE(bed.nicOf(1).srqRnrHolds.value(), 1u);
    EXPECT_EQ(srq->depth(), 0u);

    // Reposting frees the held message.
    ASSERT_TRUE(srq->postRecv(101, *rmr, 1024, 512));
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    while (c.isSend)
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    EXPECT_EQ(c.wrId, 101u);
    EXPECT_EQ(c.status, WcStatus::Success);
}

TEST(Srq, UdExhaustionDropsAndAccounts)
{
    QpipTestbed bed(2);
    auto &sender = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = sender.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(8192), sbuf(8192);
    auto rmr = server.registerMemory(rbuf);
    auto smr = sender.registerMemory(sbuf);

    QpAttrs attrs;
    attrs.srq = srq;
    auto qs =
        server.createQp(nic::QpType::UnreliableUdp, scq, scq, attrs);
    qs->bind(9000);
    auto qc = sender.createQp(nic::QpType::UnreliableUdp, ccq, ccq);
    qc->bind(9001);

    // SRQ empty: the datagram is dropped and accounted.
    ASSERT_TRUE(qc->postSend(1, *smr, 0, 256, bed.addr(1, 9000)));
    bed.sim().runFor(100 * sim::oneMs);
    EXPECT_EQ(bed.nicOf(1).srqEmptyDrops.value(), 1u);
    EXPECT_EQ(scq->depth(), 0u); // nothing delivered
    Completion c;
    ASSERT_TRUE(ccq->poll(c)); // the client's send CQE
    EXPECT_TRUE(c.isSend);

    // With a WR posted, delivery works.
    ASSERT_TRUE(srq->postRecv(7, *rmr, 0, 4096));
    ASSERT_TRUE(qc->postSend(2, *smr, 0, 256, bed.addr(1, 9000)));
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 10 * sim::oneSec));
    while (c.isSend)
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 10 * sim::oneSec));
    EXPECT_EQ(c.wrId, 7u);
    EXPECT_EQ(c.byteLen, 256u);
}

TEST(Srq, ReplenishVisitsOnlyQpsThatCanProgress)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);
    auto &nic = bed.nicOf(1);
    constexpr std::size_t numQps = 64;
    constexpr std::uint32_t msg = 1024;

    auto scq = server.createCq(1024);
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16), sbuf(msg);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);
    // 3 KB posted: every connection opens advertising 3072 bytes.
    for (std::uint64_t i = 0; i < 3; ++i)
        ASSERT_TRUE(srq->postRecv(100 + i, *rmr, i * msg, msg));

    QpAttrs server_attrs;
    server_attrs.srq = srq;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    for (std::size_t i = 0; i < numQps; ++i) {
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            server_attrs);
    }
    auto ccq = client.createCq(1024);
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    std::size_t connected = 0;
    for (std::size_t i = 0; i < numQps; ++i) {
        clientQps.push_back(
            client.createQp(nic::QpType::ReliableTcp, ccq, ccq));
        clientQps.back()->connect(
            bed.addr(1, 700),
            [&](bool ok) { connected += ok ? 1 : 0; });
    }
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] {
            return connected == numQps && serverQps.size() == numQps;
        },
        bed.sim().now() + 20 * sim::oneSec));

    // Server QPs in attach (= creation) order, each with the client
    // QP on the other end of its connection.
    std::sort(serverQps.begin(), serverQps.end(),
              [](const auto &a, const auto &b) {
                  return a->num() < b->num();
              });
    auto clientOf = [&](std::size_t rank) {
        const auto port =
            nic.connectionOf(serverQps[rank]->num())->tuple().remote.port;
        for (auto &qp : clientQps) {
            if (bed.nicOf(0).connectionOf(qp->num())->tuple().local.port ==
                port)
                return qp;
        }
        return std::shared_ptr<verbs::QueuePair>();
    };
    auto segsOut = [&](std::size_t rank) {
        return nic.connectionOf(serverQps[rank]->num())
            ->stats()
            .segsOut.value();
    };
    auto sendOn = [&](std::size_t rank, std::uint64_t id) {
        ASSERT_TRUE(clientOf(rank)->postSend(id, *smr, 0, msg));
    };
    auto nextRecv = [&](Completion &c) {
        do {
            ASSERT_TRUE(awaitCompletion(bed, *scq, c));
        } while (c.isSend);
    };

    // Attach ranks: X leaves a partial window (1 KB of its 3 KB), Y
    // empties the pool, H1 and H2 then find no WR and hold.
    constexpr std::size_t x = 8, h1 = 17, h2 = 45, y = 50;
    Completion c;
    sendOn(x, 1);
    sendOn(x, 2);
    for (std::uint64_t wr = 100; wr < 102; ++wr) {
        nextRecv(c);
        EXPECT_EQ(c.wrId, wr);
    }
    sendOn(y, 3);
    nextRecv(c);
    EXPECT_EQ(c.wrId, 102u);
    sendOn(h1, 4);
    sendOn(h2, 5);
    bed.sim().runFor(2 * sim::oneMs);
    EXPECT_EQ(nic.srqRnrHolds.value(), 2u);
    EXPECT_EQ(scq->depth(), 0u);

    std::vector<std::uint64_t> segs0(numQps);
    for (std::size_t r = 0; r < numQps; ++r)
        segs0[r] = segsOut(r);
    const std::uint64_t visits0 = nic.srqReplenishVisits.value();

    // One 2 KB WR. The idle QPs advertised 3 KB and Y 2 KB, so none
    // of them can act; X (1 KB advertised) owes a window update and
    // H1, H2 hold messages. In attach order: X updates, H1 takes the
    // WR, H2 is refused again.
    ASSERT_TRUE(srq->postRecv(200, *rmr, 8 * msg, 2 * msg));
    nextRecv(c);
    bed.sim().runFor(sim::oneMs);
    EXPECT_EQ(c.wrId, 200u);
    EXPECT_EQ(c.qp, serverQps[h1]->num());
    EXPECT_EQ(c.byteLen, msg);
    EXPECT_EQ(nic.srqRnrHolds.value(), 3u);
    EXPECT_EQ(nic.srqReplenishVisits.value() - visits0, 3u);
    for (std::size_t r = 0; r < numQps; ++r) {
        const std::uint64_t want = r == x || r == h1 ? 1 : 0;
        EXPECT_EQ(segsOut(r) - segs0[r], want) << "attach rank " << r;
    }

    // X's update advertised 2 KB, which re-keyed it: a 1.5 KB WR is
    // offered to H2 alone.
    const std::uint64_t visits1 = nic.srqReplenishVisits.value();
    const std::uint64_t segsX = segsOut(x);
    ASSERT_TRUE(srq->postRecv(201, *rmr, 12 * msg, 3 * msg / 2));
    nextRecv(c);
    EXPECT_EQ(c.wrId, 201u);
    EXPECT_EQ(c.qp, serverQps[h2]->num());
    EXPECT_EQ(nic.srqReplenishVisits.value() - visits1, 1u);
    EXPECT_EQ(segsOut(x), segsX);
    EXPECT_EQ(nic.srqRnrHolds.value(), 3u);
}

TEST(Srq, ThresholdFollowsTheAdvertisedEdge)
{
    // One 16 KB-MSS connection: with A bytes of advertised room left
    // (A >= mss), a replenish acts only once postedBytes reaches
    // A + 2 mss. Every ACK that moves the edge re-keys the QP.
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);
    auto &nic = bed.nicOf(1);
    auto scq = server.createCq();
    auto ccq = client.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(1 << 17), sbuf(1000);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);
    ASSERT_TRUE(srq->postRecv(1, *rmr, 0, 20000));

    QpAttrs attrs;
    attrs.srq = srq;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::shared_ptr<verbs::QueuePair> sqp;
    acc.acceptOne(
        [&](std::shared_ptr<verbs::QueuePair> q) { sqp = std::move(q); },
        attrs);
    auto cqp = client.createQp(nic::QpType::ReliableTcp, ccq, ccq);
    bool connected = false;
    cqp->connect(bed.addr(1, 700), [&](bool ok) { connected = ok; });
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected && sqp != nullptr; },
        bed.sim().now() + 10 * sim::oneSec));
    bed.sim().runFor(sim::oneMs);

    auto *conn = nic.connectionOf(sqp->num());
    auto post = [&](std::uint64_t id, std::uint32_t bytes) {
        const std::uint64_t visits = nic.srqReplenishVisits.value();
        const std::uint64_t segs = conn->stats().segsOut.value();
        EXPECT_TRUE(srq->postRecv(id, *rmr, 0, bytes));
        bed.sim().runFor(sim::oneMs);
        return std::make_pair(nic.srqReplenishVisits.value() - visits,
                              conn->stats().segsOut.value() - segs);
    };
    using Deltas = std::pair<std::uint64_t, std::uint64_t>;
    // Advertised 20000 at the handshake: 52000 posted < 52768.
    EXPECT_EQ(post(2, 32000), Deltas(0, 0));
    // A 1000-byte message takes WR 1; its ACK advertises the 32000
    // still posted, so the threshold rises to 64768.
    ASSERT_TRUE(cqp->postSend(9, *smr, 0, 1000));
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *scq, c));
    EXPECT_EQ(c.wrId, 1u);
    bed.sim().runFor(sim::oneMs);
    EXPECT_EQ(post(3, 25000), Deltas(0, 0)); // 57000 < 64768
    EXPECT_EQ(post(4, 8000), Deltas(1, 1));  // 65000: window update
}

TEST(Srq, RdmaWindowCountsTowardTheReplenishThreshold)
{
    // An RDMA-enabled QP advertises postedBytes + its one-sided
    // window, so its SRQ threshold sits that window below the TCP one.
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);
    auto &nic = bed.nicOf(1);
    auto scq = server.createCq();
    auto ccq = client.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(4096);
    auto rmr = server.registerMemory(rbuf);

    QpAttrs attrs;
    attrs.srq = srq;
    attrs.rdmaWindowBytes = 4096;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::shared_ptr<verbs::QueuePair> sqp;
    acc.acceptOne(
        [&](std::shared_ptr<verbs::QueuePair> q) { sqp = std::move(q); },
        attrs);
    QpAttrs client_attrs;
    client_attrs.rdmaWindowBytes = 4096;
    auto cqp = client.createQp(nic::QpType::ReliableTcp, ccq, ccq,
                               client_attrs);
    bool connected = false;
    cqp->connect(bed.addr(1, 700), [&](bool ok) { connected = ok; });
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected && sqp != nullptr; },
        bed.sim().now() + 10 * sim::oneSec));
    bed.sim().runFor(sim::oneMs);

    // The handshake advertised the 4 KB window with nothing posted:
    // one posted byte past it already owes a window update.
    auto *conn = nic.connectionOf(sqp->num());
    const std::uint64_t segs0 = conn->stats().segsOut.value();
    const std::uint64_t visits0 = nic.srqReplenishVisits.value();
    ASSERT_TRUE(srq->postRecv(1, *rmr, 0, 1024));
    bed.sim().runFor(sim::oneMs);
    EXPECT_EQ(nic.srqReplenishVisits.value() - visits0, 1u);
    EXPECT_EQ(conn->stats().segsOut.value() - segs0, 1u);
}

TEST(Srq, DestroyingAnAttachedQpKeepsSharedWrsPosted)
{
    QpipTestbed bed(2);
    auto &sender = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(4096), sbuf(256);
    auto rmr = server.registerMemory(rbuf);
    auto smr = sender.registerMemory(sbuf);
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(srq->postRecv(100 + i, *rmr, i * 1024, 1024));

    QpAttrs server_attrs;
    server_attrs.srq = srq;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    auto ccq = sender.createCq();
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    std::size_t connected = 0;
    for (int i = 0; i < 2; ++i) {
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            server_attrs);
        clientQps.push_back(
            sender.createQp(nic::QpType::ReliableTcp, ccq, ccq));
        clientQps.back()->connect(bed.addr(1, 700), [&](bool ok) {
            connected += ok ? 1 : 0;
        });
    }
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected == 2 && serverQps.size() == 2; },
        bed.sim().now() + 20 * sim::oneSec));

    // Tearing one attached QP down flushes its own (empty) ring, not
    // the shared one.
    serverQps[0].reset();
    bed.sim().runFor(10 * sim::oneMs);
    EXPECT_EQ(scq->depth(), 0u);
    EXPECT_EQ(srq->depth(), 4u);

    // The survivor still lands in the SRQ's WRs, oldest first.
    ASSERT_TRUE(clientQps[1]->postSend(7, *smr, 0, 200));
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    EXPECT_FALSE(c.isSend);
    EXPECT_EQ(c.qp, serverQps[1]->num());
    EXPECT_EQ(c.wrId, 100u);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, 200u);
    bed.sim().runFor(10 * sim::oneMs);
    EXPECT_EQ(scq->depth(), 0u); // no Flushed receive completions
    EXPECT_EQ(srq->depth(), 3u);
}

// ---------------------------------------------------------------------
// QP context cache
// ---------------------------------------------------------------------

TEST(QpCtxCache, MissesAndEvictionsAreCounted)
{
    nic::QpipNicParams params;
    params.qpCacheCapacity = 2; // tiny SRAM: 2 resident contexts
    QpipTestbed bed(2, qpipNativeMtu, 1, params);

    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    // Three QPs thrash a two-entry cache.
    auto a = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    auto b = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    auto q3 = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    a->bind(9000);
    b->bind(9001);
    q3->bind(9002);
    bed.sim().runFor(10 * sim::oneMs);

    const auto &cache = bed.nicOf(0).qpCache();
    // Warm installs: creating the third QP evicted the first.
    EXPECT_EQ(cache.evictions.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 0u);

    std::vector<std::uint8_t> buf(4096);
    auto mr = prov.registerMemory(buf);
    // Touching the evicted QP now misses (fetch) and evicts another.
    ASSERT_TRUE(a->postSend(1, *mr, 0, 64, bed.addr(1, 9100)));
    bed.sim().runFor(10 * sim::oneMs);
    EXPECT_GE(cache.misses.value(), 1u);
    EXPECT_GE(cache.evictions.value(), 2u);
    // Every displaced context is written back exactly once.
    EXPECT_EQ(bed.nicOf(0).ctxWritebacks.value(),
              cache.evictions.value());
}

TEST(QpCtxCache, DisabledCacheCountsNothing)
{
    nic::QpipNicParams params;
    params.qpCacheCapacity = 0;
    QpipTestbed bed(2, qpipNativeMtu, 1, params);

    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    auto qp = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    qp->bind(9000);
    std::vector<std::uint8_t> buf(4096);
    auto mr = prov.registerMemory(buf);
    ASSERT_TRUE(qp->postSend(1, *mr, 0, 64, bed.addr(1, 9100)));
    bed.sim().runFor(10 * sim::oneMs);

    const auto &cache = bed.nicOf(0).qpCache();
    EXPECT_FALSE(cache.enabled());
    EXPECT_EQ(cache.hits.value(), 0u);
    EXPECT_EQ(cache.misses.value(), 0u);
    EXPECT_EQ(cache.evictions.value(), 0u);
}

TEST(QpCtxCache, LruPromotesOnTouchAndEvictsTheLruEntry)
{
    nic::QpContextCache cache(3);
    EXPECT_TRUE(cache.enabled());

    // Installs warm the cache without counting a miss (or a hit).
    for (nic::QpNum q = 1; q <= 3; ++q) {
        const auto t = cache.install(q);
        EXPECT_TRUE(t.hit);
        EXPECT_FALSE(t.writeback);
    }
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.misses.value(), 0u);
    EXPECT_EQ(cache.hits.value(), 0u);

    // Touching qp1 promotes it to MRU: LRU order is now 2, 3, 1.
    EXPECT_TRUE(cache.touch(1).hit);

    // A miss displaces the LRU entry, qp2, which owes one writeback.
    auto t = cache.touch(4);
    EXPECT_FALSE(t.hit);
    EXPECT_TRUE(t.writeback);
    EXPECT_EQ(cache.evictions.value(), 1u);
    EXPECT_EQ(cache.size(), 3u);

    // The survivors still hit (LRU order afterwards: 3, 1, 4) ...
    EXPECT_TRUE(cache.touch(3).hit);
    EXPECT_TRUE(cache.touch(1).hit);
    EXPECT_TRUE(cache.touch(4).hit);
    // ... and the victim misses, displacing the new LRU entry, qp3.
    t = cache.touch(2);
    EXPECT_FALSE(t.hit);
    EXPECT_TRUE(t.writeback);
    EXPECT_TRUE(cache.touch(1).hit);
    EXPECT_TRUE(cache.touch(4).hit);
    EXPECT_TRUE(cache.touch(2).hit);
    EXPECT_EQ(cache.misses.value(), 2u);
    EXPECT_EQ(cache.evictions.value(), 2u);

    // An install into a full cache evicts the LRU entry (qp1) too,
    // still without counting a miss.
    t = cache.install(5);
    EXPECT_TRUE(t.hit);
    EXPECT_TRUE(t.writeback);
    EXPECT_EQ(cache.evictions.value(), 3u);
    EXPECT_EQ(cache.misses.value(), 2u);

    // remove() frees a slot: the next fetch displaces nothing.
    cache.remove(4);
    EXPECT_EQ(cache.size(), 2u);
    t = cache.touch(1);
    EXPECT_FALSE(t.hit);
    EXPECT_FALSE(t.writeback);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions.value(), 3u);
    EXPECT_EQ(cache.hits.value(), 7u);
    EXPECT_EQ(cache.misses.value(), 3u);
}

// ---------------------------------------------------------------------
// Reliable datagrams (RUD)
// ---------------------------------------------------------------------

TEST(Rud, InOrderDeliveryWithAckGatedCompletions)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = client.createCq();
    std::vector<std::uint8_t> rbuf(1 << 14), sbuf(1 << 14);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);

    auto qs = server.createQp(nic::QpType::ReliableDatagram, scq, scq);
    qs->bind(800);
    auto qc = client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
    qc->bind(801);

    constexpr std::size_t numMsgs = 4;
    constexpr std::size_t msgBytes = 512;
    for (std::size_t i = 0; i < numMsgs; ++i)
        ASSERT_TRUE(qs->postRecv(100 + i, *rmr, i * 1024, 1024));
    for (std::size_t i = 0; i < numMsgs; ++i) {
        const auto msg =
            pattern(msgBytes, static_cast<std::uint8_t>(i + 1));
        std::copy(msg.begin(), msg.end(),
                  sbuf.begin() + i * msgBytes);
        ASSERT_TRUE(qc->postSend(i, *smr, i * msgBytes, msgBytes,
                                 bed.addr(1, 800)));
    }

    // Delivery is in posted order, WR-per-message.
    for (std::size_t i = 0; i < numMsgs; ++i) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *scq, c));
        EXPECT_FALSE(c.isSend);
        EXPECT_EQ(c.wrId, 100 + i);
        EXPECT_EQ(c.status, WcStatus::Success);
        EXPECT_EQ(c.byteLen, msgBytes);
        EXPECT_EQ(c.from, bed.addr(0, 801));
        const auto expect =
            pattern(msgBytes, static_cast<std::uint8_t>(i + 1));
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                               rbuf.begin() + i * 1024));
    }

    // Send completions are ack-gated and arrive in order too.
    for (std::size_t i = 0; i < numMsgs; ++i) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *ccq, c));
        EXPECT_TRUE(c.isSend);
        EXPECT_EQ(c.wrId, i);
        EXPECT_EQ(c.status, WcStatus::Success);
    }
    EXPECT_GE(bed.nicOf(1).rudAcksSent.value(), 1u);
    EXPECT_EQ(bed.nicOf(0).rudRetransmits.value(), 0u);
    EXPECT_EQ(bed.nicOf(0).udpNoWrDrops.value(), 0u);
}

TEST(Rud, ManyPeersFanInToOneQp)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = client.createCq();
    std::vector<std::uint8_t> rbuf(1 << 14), sbuf(1 << 14);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);

    // One server QP; each client-side QP is a distinct peer (its own
    // source port), with its own sequence space on the server.
    auto qs = server.createQp(nic::QpType::ReliableDatagram, scq, scq);
    qs->bind(800);

    constexpr std::size_t numPeers = 4;
    constexpr std::size_t perPeer = 2;
    constexpr std::size_t msgBytes = 128;
    std::vector<std::shared_ptr<verbs::QueuePair>> peers;
    for (std::size_t i = 0; i < numPeers; ++i) {
        auto qp =
            client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
        qp->bind(static_cast<std::uint16_t>(2000 + i));
        peers.push_back(std::move(qp));
    }
    for (std::size_t i = 0; i < numPeers * perPeer; ++i)
        ASSERT_TRUE(qs->postRecv(100 + i, *rmr, i * 256, 256));
    for (std::size_t round = 0; round < perPeer; ++round) {
        for (std::size_t i = 0; i < numPeers; ++i) {
            const std::size_t n = round * numPeers + i;
            ASSERT_TRUE(peers[i]->postSend(n, *smr, n * msgBytes,
                                           msgBytes,
                                           bed.addr(1, 800)));
        }
    }

    std::map<std::uint16_t, std::size_t> perPort;
    for (std::size_t n = 0; n < numPeers * perPeer; ++n) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *scq, c));
        ASSERT_FALSE(c.isSend);
        EXPECT_EQ(c.status, WcStatus::Success);
        ++perPort[c.from.port];
    }
    EXPECT_EQ(perPort.size(), numPeers);
    for (const auto &[port, count] : perPort)
        EXPECT_EQ(count, perPeer) << "port " << port;

    // Every send eventually completes (acked), none retransmitted on
    // a clean fabric.
    std::size_t sendsDone = 0;
    while (sendsDone < numPeers * perPeer) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *ccq, c));
        if (c.isSend && c.status == WcStatus::Success)
            ++sendsDone;
    }
    EXPECT_EQ(bed.nicOf(0).rudRetransmits.value(), 0u);
}

TEST(Rud, SrqExhaustionHoldsAndAccountsRnr)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = client.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(16384), sbuf(8192);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);

    QpAttrs attrs;
    attrs.srq = srq;
    auto qs = server.createQp(nic::QpType::ReliableDatagram, scq, scq,
                              attrs);
    qs->bind(800);
    // Three peers, created (and sending) out of port order.
    const std::uint16_t ports[] = {803, 801, 802};
    std::vector<std::shared_ptr<verbs::QueuePair>> peers;
    for (const std::uint16_t port : ports) {
        peers.push_back(
            client.createQp(nic::QpType::ReliableDatagram, ccq, ccq));
        peers.back()->bind(port);
    }

    // SRQ empty: unlike UD (which drops and counts srq.emptyDrops),
    // the reliable service holds each peer's in-order datagram
    // un-acked and accounts one RNR hold per peer; retransmits of a
    // held datagram add none.
    for (std::size_t i = 0; i < peers.size(); ++i) {
        ASSERT_TRUE(peers[i]->postSend(ports[i], *smr, i * 256, 256,
                                       bed.addr(1, 800)));
    }
    bed.sim().runFor(100 * sim::oneMs);
    EXPECT_EQ(bed.nicOf(1).srqRnrHolds.value(), 3u);
    EXPECT_EQ(bed.nicOf(1).rudRnrHolds.value(), 0u);
    EXPECT_EQ(bed.nicOf(1).srqEmptyDrops.value(), 0u);
    EXPECT_EQ(scq->depth(), 0u); // nothing delivered...
    EXPECT_EQ(ccq->depth(), 0u); // ...and nothing acked

    // Each repost releases one held datagram, lowest peer address
    // first; its ack then completes that peer's send.
    Completion c;
    for (const std::uint16_t port : {801, 802, 803}) {
        ASSERT_TRUE(srq->postRecv(port, *rmr, (port - 800) * 4096,
                                  4096));
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
        EXPECT_EQ(c.wrId, port);
        EXPECT_EQ(c.from.port, port);
        EXPECT_EQ(c.byteLen, 256u);
        EXPECT_EQ(c.status, WcStatus::Success);
        ASSERT_TRUE(awaitCompletion(bed, *ccq, c, 20 * sim::oneSec));
        EXPECT_TRUE(c.isSend);
        EXPECT_EQ(c.wrId, port);
        EXPECT_EQ(c.status, WcStatus::Success);
        EXPECT_EQ(scq->depth(), 0u); // the others stay held
    }
    EXPECT_EQ(bed.nicOf(1).srqRnrHolds.value(), 3u);
    // Only passes with a holding peer visit the QP.
    EXPECT_EQ(bed.nicOf(1).srqReplenishVisits.value(), 3u);
}

TEST(Rud, FlushSurfacesWindowedSendsOnDestroy)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto ccq = client.createCq();
    std::vector<std::uint8_t> sbuf(4096);
    auto smr = client.registerMemory(sbuf);

    auto qc = client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
    qc->bind(801);
    // The peer port is bound by nobody: data flows out but no ack
    // ever returns, so the WR stays in the unacked window.
    ASSERT_TRUE(qc->postSend(1, *smr, 0, 256, bed.addr(1, 802)));
    bed.sim().runFor(20 * sim::oneMs);
    EXPECT_EQ(ccq->depth(), 0u);

    // Destroying the QP flushes the window.
    qc.reset();
    bed.sim().runFor(10 * sim::oneMs);
    Completion c;
    ASSERT_TRUE(ccq->poll(c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 1u);
    EXPECT_EQ(c.status, WcStatus::Flushed);
}
