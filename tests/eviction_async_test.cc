/**
 * @file
 * Tests for the pipelined asynchronous eviction engine: the
 * submit/poll/drain API, the depth-sweep content-equivalence oracle
 * (final remote bytes at depth N match the synchronous depth-1 engine,
 * including under injected drops and corruption), out-of-order batch
 * completion across nodes, NAK-retransmit of an in-flight ring slot,
 * the write-to-in-flight-page refetch fence, the snoop of lines read
 * while a page was in flight, and ring-full backpressure.
 */

#include <gtest/gtest.h>

#include "core/kona_runtime.h"
#include "net/fault_injector.h"

namespace kona {
namespace {

constexpr std::size_t regionPages = 512;

/** One self-contained rack + Kona stack at a given pipeline depth. */
struct AsyncRig
{
    explicit AsyncRig(std::size_t depth, std::size_t nodeCount = 1,
                      FaultInjector *injector = nullptr,
                      std::size_t pages = regionPages)
        : controller(1 * MiB)
    {
        if (injector != nullptr)
            fabric.setFaultInjector(injector);
        for (NodeId id = 1; id <= nodeCount; ++id) {
            nodes.push_back(
                std::make_unique<MemoryNode>(fabric, id, 128 * MiB));
            controller.registerNode(*nodes.back());
        }
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 64 * MiB;
        cfg.fpga.fmemSize =
            std::max<std::size_t>(8 * MiB, 2 * pages * pageSize);
        cfg.hierarchy = HierarchyConfig::scaled();
        cfg.evict.pipelineDepth = depth;
        cfg.evict.pumpPeriod = ~std::size_t(0);   // manual only
        runtime = std::make_unique<KonaRuntime>(fabric, controller, 0,
                                                cfg);
        region = runtime->allocate(pages * pageSize, pageSize);
    }

    EvictionHandler &handler() { return runtime->evictionHandler(); }

    Addr vpn(std::size_t p) const { return pageNumber(region) + p; }

    std::vector<Addr>
    vpns(std::size_t from, std::size_t to) const
    {
        std::vector<Addr> out;
        for (std::size_t p = from; p < to; ++p)
            out.push_back(vpn(p));
        return out;
    }

    /** Value stored at page @p p, line @p l by dirtyAll(). */
    static std::uint64_t
    expected(std::size_t p, unsigned l)
    {
        return p * 1000 + l + 1;
    }

    /** Dirty @p linesPer lines in each of the first @p pages pages. */
    void
    dirtyAll(std::size_t pages, unsigned linesPer)
    {
        for (std::size_t p = 0; p < pages; ++p) {
            for (unsigned l = 0; l < linesPer; ++l) {
                runtime->store<std::uint64_t>(
                    region + p * pageSize + l * cacheLineSize,
                    expected(p, l));
            }
        }
        runtime->hierarchy().flushAll();
    }

    /** Read page @p p line @p l straight from its home node's store. */
    std::uint64_t
    remoteValue(std::size_t p, unsigned l)
    {
        RemoteLocation loc = runtime->fpga().translation().translate(
            region + p * pageSize + l * cacheLineSize);
        std::uint64_t value = 0;
        fabric.nodeStore(loc.node).read(loc.addr, &value,
                                        sizeof(value));
        return value;
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    std::unique_ptr<KonaRuntime> runtime;
    Addr region = 0;
};

// ---------------------------------------------------------------------
// Differential oracle: every depth lands byte-identical remote state.
// ---------------------------------------------------------------------

TEST(AsyncEviction, DepthSweepMatchesSynchronousContent)
{
    for (std::size_t depth : {1u, 2u, 4u, 8u}) {
        AsyncRig rig(depth);
        rig.dirtyAll(regionPages, 4);
        SimClock clock;
        rig.handler().evictBatch(rig.vpns(0, regionPages), clock);

        for (std::size_t p = 0; p < regionPages; ++p) {
            for (unsigned l = 0; l < 4; ++l) {
                ASSERT_EQ(rig.remoteValue(p, l),
                          AsyncRig::expected(p, l))
                    << "depth " << depth << " page " << p << " line "
                    << l;
            }
            EXPECT_FALSE(rig.runtime->fpga().pageResident(rig.vpn(p)));
        }
        EXPECT_EQ(rig.handler().pagesEvicted(), regionPages);
        EXPECT_EQ(rig.handler().dirtyLinesWritten(),
                  regionPages * 4u);
        EXPECT_EQ(rig.handler().inflightShipments(), 0u);
    }
}

TEST(AsyncEviction, DepthSweepMatchesUnderDropsAndCorruption)
{
    // Drops and DMA corruption force retransmits; the retry loop must
    // still land every line exactly, at every depth.
    for (std::size_t depth : {1u, 2u, 4u, 8u}) {
        FaultInjector injector(0xfab);
        AsyncRig rig(depth, 1, &injector);
        rig.dirtyAll(64, 2);
        // Arm the faults only for the eviction phase; the setup
        // stores above fetch pages over the same (clean) fabric.
        injector.profile(1).dropProbability = 0.2;
        injector.profile(1).corruptProbability = 0.2;
        SimClock clock;
        rig.handler().evictBatch(rig.vpns(0, 64), clock);

        for (std::size_t p = 0; p < 64; ++p) {
            for (unsigned l = 0; l < 2; ++l) {
                ASSERT_EQ(rig.remoteValue(p, l),
                          AsyncRig::expected(p, l))
                    << "depth " << depth << " page " << p << " line "
                    << l;
            }
        }
        EXPECT_EQ(rig.handler().pagesEvicted(), 64u);
    }
}

// ---------------------------------------------------------------------
// submit/poll: out-of-order completion across destination nodes.
// ---------------------------------------------------------------------

TEST(AsyncEviction, OutOfOrderBatchCompletion)
{
    // Two memory nodes; the 1 MiB slabs alternate between them, so the
    // region's first 256 pages and last 256 pages live on different
    // nodes. A huge batch to one node followed by a tiny batch to the
    // other completes in reverse submission order.
    AsyncRig rig(4, 2);
    rig.dirtyAll(regionPages, 64);

    RemoteLocation first =
        rig.runtime->fpga().translation().translate(rig.region);
    RemoteLocation last =
        rig.runtime->fpga().translation().translate(
            rig.region + (regionPages - 1) * pageSize);
    ASSERT_NE(first.node, last.node);

    SimClock clock;
    BatchTicket big =
        rig.handler().submit({rig.vpns(0, 256)}, clock);
    BatchTicket small =
        rig.handler().submit({rig.vpns(256, 257)}, clock);
    ASSERT_TRUE(big.valid());
    ASSERT_TRUE(small.valid());
    EXPECT_FALSE(rig.handler().complete(big));
    EXPECT_FALSE(rig.handler().complete(small));

    // Walk sim time forward: the tiny batch (submitted second) must
    // finalize while the big one is still in flight.
    while (!rig.handler().complete(small)) {
        clock.advance(1000);
        rig.handler().poll(clock);
    }
    EXPECT_FALSE(rig.handler().complete(big));
    EXPECT_GT(rig.handler().inflightShipments(), 0u);

    rig.handler().drain(clock);
    EXPECT_TRUE(rig.handler().complete(big));
    EXPECT_EQ(rig.handler().pagesEvicted(), 257u);
    EXPECT_EQ(rig.remoteValue(256, 0), AsyncRig::expected(256, 0));
    EXPECT_EQ(rig.remoteValue(0, 63), AsyncRig::expected(0, 63));
}

// ---------------------------------------------------------------------
// NAK-retransmit of an in-flight ring slot.
// ---------------------------------------------------------------------

TEST(AsyncEviction, NakRetransmitsInflightSlot)
{
    // Half the transfers are corrupted end-host-side: the receiver's
    // CRC pass NAKs those logs and the engine retransmits the same ring
    // slot until a clean copy lands.
    FaultInjector injector(0xbad5eed);
    AsyncRig rig(4, 1, &injector);
    rig.dirtyAll(32, 1);
    injector.profile(1).corruptProbability = 0.5;
    SimClock clock;
    // One submit per page: 32 independent shipments through the ring,
    // about half of which are corrupted on their first send.
    for (std::size_t p = 0; p < 32; ++p)
        rig.handler().submit({rig.vpns(p, p + 1)}, clock);
    rig.handler().drain(clock);

    EXPECT_GE(rig.handler().checksumNaks(), 1u);
    EXPECT_GE(rig.handler().logRetransmits(), 1u);
    for (std::size_t p = 0; p < 32; ++p)
        ASSERT_EQ(rig.remoteValue(p, 0), AsyncRig::expected(p, 0));
    EXPECT_EQ(rig.handler().pagesEvicted(), 32u);
}

// ---------------------------------------------------------------------
// Write to an in-flight page: fence, re-dirty, refetch.
// ---------------------------------------------------------------------

TEST(AsyncEviction, WriteToInflightPageRequeues)
{
    AsyncRig rig(4);
    rig.dirtyAll(1, 1);
    SimClock clock;
    BatchTicket t = rig.handler().submit({rig.vpns(0, 1)}, clock);
    ASSERT_TRUE(t.valid());
    ASSERT_FALSE(rig.handler().complete(t));
    // The page stays resident and fenced while its log is on the wire.
    EXPECT_TRUE(rig.runtime->fpga().pageResident(rig.vpn(0)));
    EXPECT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));

    // Write a different line while in flight: the shipped snapshot is
    // now stale and finalize must re-queue the page, not drop it.
    rig.runtime->store<std::uint64_t>(
        rig.region + 7 * cacheLineSize, 0xabcdef);
    rig.runtime->hierarchy().flushAll();

    rig.handler().drain(clock);
    EXPECT_EQ(rig.handler().inflightRefetches(), 1u);
    EXPECT_FALSE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));
    // Both the original line and the racing write landed remotely.
    EXPECT_EQ(rig.remoteValue(0, 0), AsyncRig::expected(0, 0));
    EXPECT_EQ(rig.remoteValue(0, 7), 0xabcdefu);
}

TEST(AsyncEviction, SubmitOfInflightPageStallsThenShipsFreshData)
{
    // A second submit of a page whose log is still in flight must wait
    // for the first shipment (counted) instead of double-shipping.
    AsyncRig rig(4);
    rig.dirtyAll(1, 1);
    SimClock clock;
    rig.handler().submit({rig.vpns(0, 1)}, clock);
    rig.runtime->store<std::uint64_t>(
        rig.region + 3 * cacheLineSize, 42);
    rig.runtime->hierarchy().flushAll();

    rig.handler().submit({rig.vpns(0, 1)}, clock);
    EXPECT_GE(rig.handler().pageConflictStalls(), 1u);
    rig.handler().drain(clock);
    EXPECT_EQ(rig.remoteValue(0, 0), AsyncRig::expected(0, 0));
    EXPECT_EQ(rig.remoteValue(0, 3), 42u);
}

TEST(AsyncEviction, LineReadWhileInflightLeavesCachesWithPage)
{
    // A read of a page whose log is on the wire hits in FMem and puts
    // the line in the CPU caches. When the shipment lands the page
    // drops, and the line must leave the caches with it: a cached line
    // of a dropped page hits without reaching the FPGA, so the page is
    // never fetched back.
    AsyncRig rig(4);
    rig.runtime->store<std::uint64_t>(rig.region, 11);
    SimClock clock;
    rig.handler().submit({rig.vpns(0, 1)}, clock);
    ASSERT_TRUE(rig.runtime->fpga().evictionInFlight(rig.vpn(0)));

    Addr other = rig.region + 5 * cacheLineSize;
    EXPECT_EQ(rig.runtime->load<std::uint64_t>(other), 0u);
    rig.handler().drain(clock);
    EXPECT_FALSE(rig.runtime->fpga().pageResident(rig.vpn(0)));

    std::uint64_t again = 1;
    ASSERT_NO_THROW(again = rig.runtime->load<std::uint64_t>(other));
    EXPECT_EQ(again, 0u);
    EXPECT_TRUE(rig.runtime->fpga().pageResident(rig.vpn(0)));
    EXPECT_EQ(rig.runtime->load<std::uint64_t>(rig.region), 11u);
}

// ---------------------------------------------------------------------
// Ring-full backpressure.
// ---------------------------------------------------------------------

TEST(AsyncEviction, RingFullBackpressureBlocksAndCounts)
{
    // Depth 1: one landing slot per node, so a second submit while the
    // first shipment is in flight must block on the ring.
    AsyncRig shallow(1);
    shallow.dirtyAll(2, 1);
    SimClock clock;
    shallow.handler().submit({shallow.vpns(0, 1)}, clock);
    shallow.handler().submit({shallow.vpns(1, 2)}, clock);
    EXPECT_GE(shallow.handler().ringFullStalls(), 1u);
    shallow.handler().drain(clock);
    EXPECT_EQ(shallow.handler().pagesEvicted(), 2u);

    // Depth 4: both shipments fit the ring; no stall.
    AsyncRig deep(4);
    deep.dirtyAll(2, 1);
    SimClock clock2;
    deep.handler().submit({deep.vpns(0, 1)}, clock2);
    deep.handler().submit({deep.vpns(1, 2)}, clock2);
    EXPECT_EQ(deep.handler().ringFullStalls(), 0u);
    deep.handler().drain(clock2);
    EXPECT_EQ(deep.handler().pagesEvicted(), 2u);
}

// ---------------------------------------------------------------------
// Pipelining pays: deeper rings beat the synchronous engine.
// ---------------------------------------------------------------------

TEST(AsyncEviction, DeepPipelineBeatsSynchronous)
{
    // Dirty-heavy workload: with every page fully dirty the receiver's
    // unpack dominates, and overlapping it with the next batch's pack
    // and wire time must win by a wide margin. Enough pages for the
    // pipeline to reach steady state past the fill/drain edges.
    constexpr std::size_t pages = 2048;
    auto evictAll = [](std::size_t depth) {
        AsyncRig rig(depth, 1, nullptr, pages);
        rig.dirtyAll(pages, 64);
        SimClock clock;
        rig.handler().evictBatch(rig.vpns(0, pages), clock);
        return static_cast<double>(clock.now());
    };
    double sync = evictAll(1);
    double deep = evictAll(4);
    EXPECT_GT(sync / deep, 1.3);
}

} // namespace
} // namespace kona
