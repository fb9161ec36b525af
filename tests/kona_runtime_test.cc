/**
 * @file
 * Tests for the Kona runtime: transparent allocation, byte-exact data
 * under FMem pressure and eviction, the no-page-fault property, dirty
 * cache-line tracking end-to-end, replication, and shutdown writeback
 * producing an exact remote image.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/kona_runtime.h"

namespace kona {
namespace {

/** A small rack + Kona stack for tests. */
class KonaFixture : public ::testing::Test
{
  protected:
    explicit KonaFixture(std::size_t fmemSize = 1 * MiB,
                         std::size_t replication = 0)
        : controller(1 * MiB)
    {
        for (NodeId id = 10; id < 13; ++id) {
            nodes.push_back(std::make_unique<MemoryNode>(
                fabric, id, 64 * MiB));
            controller.registerNode(*nodes.back());
        }
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 64 * MiB;
        cfg.fpga.fmemSize = fmemSize;
        cfg.hierarchy = HierarchyConfig::scaled();
        cfg.replicationFactor = replication;
        runtime = std::make_unique<KonaRuntime>(fabric, controller, 0,
                                                cfg);
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    std::unique_ptr<KonaRuntime> runtime;
};

TEST_F(KonaFixture, AllocateAndRoundTrip)
{
    Addr a = runtime->allocate(1000);
    std::vector<std::uint8_t> data(1000);
    Rng rng(1);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    runtime->write(a, data.data(), data.size());
    std::vector<std::uint8_t> check(1000, 0);
    runtime->read(a, check.data(), check.size());
    EXPECT_EQ(check, data);
}

TEST_F(KonaFixture, TypedLoadStore)
{
    Addr a = runtime->allocate(64);
    runtime->store<double>(a, 3.25);
    runtime->store<std::uint16_t>(a + 8, 777);
    EXPECT_DOUBLE_EQ(runtime->load<double>(a), 3.25);
    EXPECT_EQ(runtime->load<std::uint16_t>(a + 8), 777);
}

TEST_F(KonaFixture, NoPageFaultsEver)
{
    // The defining property: every VFMem page is present + writable
    // from allocation to teardown.
    Addr a = runtime->allocate(4 * MiB, pageSize);
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        Addr addr = a + rng.below(4 * MiB - 8);
        runtime->store<std::uint64_t>(addr, i);
    }
    RuntimeStats stats = runtime->stats();
    EXPECT_EQ(stats.majorFaults, 0u);
    EXPECT_EQ(stats.minorFaults, 0u);
    EXPECT_EQ(stats.tlbShootdowns, 0u);
    EXPECT_GT(stats.remoteFetches, 0u);

    // Spot-check the page table: mapped, present, writable.
    const PageTableEntry *pte = runtime->pageTable().entry(
        pageNumber(a));
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->present);
    EXPECT_TRUE(pte->writable);
}

TEST_F(KonaFixture, DataSurvivesFMemPressure)
{
    // Working set (8MB) is 8x FMem (1MB): heavy eviction traffic.
    std::size_t size = 8 * MiB;
    Addr a = runtime->allocate(size, pageSize);
    Rng rng(3);
    std::vector<std::uint64_t> expected(size / pageSize);
    for (std::size_t p = 0; p < expected.size(); ++p) {
        expected[p] = rng.next();
        runtime->store<std::uint64_t>(a + p * pageSize + 16,
                                      expected[p]);
    }
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_EQ(runtime->load<std::uint64_t>(a + p * pageSize + 16),
                  expected[p])
            << "page " << p;
    }
    EXPECT_GT(runtime->stats().pagesEvicted, 0u);
}

TEST_F(KonaFixture, WritebackAllProducesExactRemoteImage)
{
    Addr a = runtime->allocate(256 * KiB, pageSize);
    std::vector<std::uint8_t> data(256 * KiB);
    Rng rng(4);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    runtime->write(a, data.data(), data.size());
    runtime->writebackAll();

    // Read the image straight from the memory nodes.
    for (std::size_t off = 0; off < data.size(); off += 128) {
        RemoteLocation loc =
            runtime->fpga().translation().translate(a + off);
        std::uint8_t remoteByte = 0;
        fabric.nodeStore(loc.node).read(loc.addr, &remoteByte, 1);
        EXPECT_EQ(remoteByte, data[off]) << "offset " << off;
    }
    // Nothing remains resident.
    EXPECT_EQ(runtime->fpga().fmem().pagesResident(), 0u);
}

TEST_F(KonaFixture, DirtyLineTrackingIsFineGrained)
{
    Addr a = runtime->allocate(64 * pageSize, pageSize);
    // Dirty exactly 3 lines of one page.
    runtime->store<std::uint64_t>(a + 0 * cacheLineSize, 1);
    runtime->store<std::uint64_t>(a + 7 * cacheLineSize, 2);
    runtime->store<std::uint64_t>(a + 63 * cacheLineSize, 3);
    std::uint64_t mask = runtime->fpga().dirtyMask(pageNumber(a));
    EXPECT_EQ(mask, (1ULL << 0) | (1ULL << 7) | (1ULL << 63));
}

TEST_F(KonaFixture, EvictionShipsOnlyDirtyLines)
{
    Addr a = runtime->allocate(16 * pageSize, pageSize);
    // Touch 16 pages, dirty 2 lines each.
    for (int p = 0; p < 16; ++p) {
        runtime->store<std::uint64_t>(a + p * pageSize, p);
        runtime->store<std::uint64_t>(a + p * pageSize + 640, p);
    }
    runtime->writebackAll();
    RuntimeStats stats = runtime->stats();
    EXPECT_EQ(stats.dirtyLinesWritten, 32u);
    // Wire bytes = lines + per-run headers, far below 16 full pages.
    EXPECT_LT(stats.evictionBytesOnWire, 16 * pageSize / 10);
    EXPECT_GE(stats.evictionBytesOnWire, 32 * cacheLineSize);
}

TEST_F(KonaFixture, CleanPagesEvictSilently)
{
    Addr a = runtime->allocate(8 * pageSize, pageSize);
    std::uint64_t sink = 0;
    for (int p = 0; p < 8; ++p)
        sink += runtime->load<std::uint64_t>(a + p * pageSize);
    (void)sink;
    runtime->writebackAll();
    RuntimeStats stats = runtime->stats();
    EXPECT_EQ(stats.silentEvictions, 8u);
    EXPECT_EQ(stats.evictionBytesOnWire, 0u);
}

TEST_F(KonaFixture, ClockAdvancesMonotonically)
{
    Addr a = runtime->allocate(pageSize);
    Tick t0 = runtime->elapsed();
    runtime->store<std::uint64_t>(a, 1);
    Tick t1 = runtime->elapsed();
    EXPECT_GT(t1, t0);   // the fetch cost something
    runtime->store<std::uint64_t>(a, 2);
    EXPECT_GE(runtime->elapsed(), t1);
}

TEST_F(KonaFixture, RemoteFetchDominatesFirstTouch)
{
    Addr a = runtime->allocate(2 * pageSize, pageSize);
    Tick before = runtime->appTime();
    runtime->store<std::uint64_t>(a, 1);   // cold: remote fetch ~3us
    Tick cold = runtime->appTime() - before;
    before = runtime->appTime();
    runtime->store<std::uint64_t>(a, 2);   // hot: L1
    Tick hot = runtime->appTime() - before;
    EXPECT_GT(cold, 2500u);
    EXPECT_LT(hot, 100u);
}

TEST_F(KonaFixture, HeapGrowsAcrossSlabs)
{
    // Allocate more than one slab's worth.
    std::vector<Addr> blocks;
    for (int i = 0; i < 6; ++i)
        blocks.push_back(runtime->allocate(512 * KiB, pageSize));
    EXPECT_GT(runtime->fpga().translation().slabCount(), 1u);
    // All allocations are disjoint VFMem addresses.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        for (std::size_t j = i + 1; j < blocks.size(); ++j) {
            EXPECT_TRUE(blocks[i] + 512 * KiB <= blocks[j] ||
                        blocks[j] + 512 * KiB <= blocks[i]);
        }
    }
}

TEST_F(KonaFixture, DeallocateAllowsReuse)
{
    Addr a = runtime->allocate(1 * MiB, pageSize);
    runtime->deallocate(a);
    Addr b = runtime->allocate(1 * MiB, pageSize);
    EXPECT_EQ(a, b);   // best-fit reuses the freed block
}

/** Replication fixture: every slab gets one replica. */
class KonaReplicationFixture : public KonaFixture
{
  protected:
    KonaReplicationFixture() : KonaFixture(1 * MiB, 1) {}
};

TEST_F(KonaReplicationFixture, DataSurvivesPrimaryNodeLoss)
{
    Addr a = runtime->allocate(64 * pageSize, pageSize);
    Rng rng(6);
    std::vector<std::uint64_t> expected(64);
    for (std::size_t p = 0; p < 64; ++p) {
        expected[p] = rng.next();
        runtime->store<std::uint64_t>(a + p * pageSize, expected[p]);
    }
    runtime->writebackAll();

    // Kill the primary node of the first page's slab.
    NodeId primary = runtime->fpga().translation().translate(a).node;
    fabric.setNodeDown(primary, true);

    for (std::size_t p = 0; p < 64; ++p) {
        EXPECT_EQ(runtime->load<std::uint64_t>(a + p * pageSize),
                  expected[p])
            << "page " << p;
    }
    fabric.setNodeDown(primary, false);
}

TEST_F(KonaReplicationFixture, EvictionWritesAllReplicas)
{
    Addr a = runtime->allocate(pageSize, pageSize);
    runtime->store<std::uint64_t>(a + 128, 0xabcdef);
    runtime->writebackAll();
    CopySet copies = runtime->fpga().translation().copies(a + 128);
    ASSERT_EQ(copies.size(), 2u);
    for (std::size_t i = 0; i < copies.size(); ++i) {
        const RemoteLocation loc = copies[i];
        std::uint64_t check = 0;
        fabric.nodeStore(loc.node).read(loc.addr, &check,
                                        sizeof(check));
        EXPECT_EQ(check, 0xabcdefu) << "node " << loc.node;
    }
}

/** Eviction-mode comparison: CL log vs full-page movement. */
TEST(KonaEvictionModes, ClLogMovesFarLessThanFullPage)
{
    auto runOnce = [](EvictionMode mode) {
        Fabric fabric;
        Controller controller(1 * MiB);
        MemoryNode node(fabric, 1, 64 * MiB);
        controller.registerNode(node);
        KonaConfig cfg;
        cfg.fpga.vfmemSize = 16 * MiB;
        cfg.fpga.fmemSize = 1 * MiB;
        cfg.hierarchy = HierarchyConfig::scaled();
        cfg.evict.mode = mode;
        KonaRuntime runtime(fabric, controller, 0, cfg);
        Addr a = runtime.allocate(4 * MiB, pageSize);
        // One dirty line per page (the worst case for pages).
        for (std::size_t p = 0; p < 4 * MiB / pageSize; ++p)
            runtime.store<std::uint64_t>(a + p * pageSize, p);
        runtime.writebackAll();
        return runtime.stats();
    };

    RuntimeStats cl = runOnce(EvictionMode::ClLog);
    RuntimeStats page = runOnce(EvictionMode::FullPage);
    EXPECT_EQ(cl.dirtyLinesWritten, page.dirtyLinesWritten);
    // ~4KB/page vs ~72B/page on the wire: > 40x difference.
    EXPECT_GT(page.evictionBytesOnWire,
              40 * cl.evictionBytesOnWire);
    EXPECT_GT(page.evictionAmplification(), 40.0);
    EXPECT_LT(cl.evictionAmplification(), 2.0);
}

} // namespace
} // namespace kona
