/**
 * @file
 * Unit tests for src/mem: backing store, page table, TLB, region
 * allocator, dirty-line masks (kept per FMem frame by the coherent
 * FPGA) and page snapshots — including property sweeps over
 * randomized allocation workloads.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/rng.h"
#include "fpga/coherent_fpga.h"
#include "mem/backing_store.h"
#include "mem/dirty_bitmap.h"
#include "mem/page_snapshot.h"
#include "mem/page_table.h"
#include "mem/region_allocator.h"
#include "mem/tlb.h"

namespace kona {
namespace {

TEST(BackingStore, ZeroFilledOnFirstTouch)
{
    BackingStore store(1 * MiB);
    std::uint8_t buf[16];
    store.read(1234, buf, sizeof(buf));
    for (std::uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(store.residentPages(), 0u);   // reads do not materialize
}

TEST(BackingStore, ReadWriteRoundTrip)
{
    BackingStore store(1 * MiB);
    const char msg[] = "disaggregated";
    store.write(5000, msg, sizeof(msg));
    char out[sizeof(msg)];
    store.read(5000, out, sizeof(out));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(store.residentPages(), 1u);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore store(1 * MiB);
    std::vector<std::uint8_t> data(3 * pageSize);
    Rng rng(1);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    Addr addr = pageSize - 100;   // spans four pages
    store.write(addr, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    store.read(addr, out.data(), out.size());
    EXPECT_EQ(data, out);
    EXPECT_EQ(store.residentPages(), 4u);
}

TEST(BackingStore, OutOfBoundsIsFatal)
{
    BackingStore store(pageSize);
    std::uint8_t b = 0;
    EXPECT_THROW(store.read(pageSize, &b, 1), PanicError);
    EXPECT_THROW(store.write(pageSize - 1, &b, 2), PanicError);
}

TEST(PageTable, MapTranslateUnmap)
{
    PageTable pt;
    EXPECT_EQ(pt.translate(7, AccessType::Read),
              TranslationResult::NotPresent);
    pt.map(7, 42);
    EXPECT_EQ(pt.translate(7, AccessType::Read), TranslationResult::Ok);
    EXPECT_EQ(pt.entry(7)->physPage, 42u);
    EXPECT_TRUE(pt.entry(7)->accessed);
    pt.unmap(7);
    EXPECT_EQ(pt.translate(7, AccessType::Read),
              TranslationResult::NotPresent);
}

TEST(PageTable, WriteProtectFaultsOnWriteOnly)
{
    PageTable pt;
    pt.map(1, 1);
    pt.writeProtect(1);
    EXPECT_EQ(pt.translate(1, AccessType::Read), TranslationResult::Ok);
    EXPECT_EQ(pt.translate(1, AccessType::Write),
              TranslationResult::WriteProtected);
    EXPECT_FALSE(pt.entry(1)->dirty);
    pt.enableWrite(1);
    EXPECT_EQ(pt.translate(1, AccessType::Write),
              TranslationResult::Ok);
    EXPECT_TRUE(pt.entry(1)->dirty);
}

TEST(PageTable, DirtyBitSetOnWrite)
{
    PageTable pt;
    pt.map(3, 3);
    EXPECT_FALSE(pt.entry(3)->dirty);
    pt.translate(3, AccessType::Read);
    EXPECT_FALSE(pt.entry(3)->dirty);
    pt.translate(3, AccessType::Write);
    EXPECT_TRUE(pt.entry(3)->dirty);
    pt.clearDirty(3);
    EXPECT_FALSE(pt.entry(3)->dirty);
}

TEST(PageTable, NotPresentAfterEviction)
{
    PageTable pt;
    pt.map(5, 5);
    pt.markNotPresent(5);
    EXPECT_EQ(pt.translate(5, AccessType::Read),
              TranslationResult::NotPresent);
    pt.markPresent(5);
    EXPECT_EQ(pt.translate(5, AccessType::Read), TranslationResult::Ok);
}

TEST(PageTable, CountsPteUpdates)
{
    PageTable pt;
    auto before = pt.pteUpdates();
    pt.map(1, 1);
    pt.writeProtect(1);
    pt.enableWrite(1);
    EXPECT_EQ(pt.pteUpdates(), before + 3);
}

TEST(Tlb, HitMissAndLru)
{
    Tlb tlb(2);
    EXPECT_FALSE(tlb.lookup(1));
    tlb.insert(1);
    tlb.insert(2);
    EXPECT_TRUE(tlb.lookup(1));   // 1 becomes MRU
    tlb.insert(3);                // evicts 2 (LRU)
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_TRUE(tlb.lookup(3));
    EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(Tlb, InvalidationsAndFlush)
{
    Tlb tlb(8);
    tlb.insert(1);
    tlb.insert(2);
    tlb.invalidatePage(1);
    EXPECT_FALSE(tlb.lookup(1));
    EXPECT_TRUE(tlb.lookup(2));
    EXPECT_EQ(tlb.invalidations(), 1u);
    tlb.invalidateAll();
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_EQ(tlb.flushes(), 1u);
}

TEST(RegionAllocator, BasicAllocFree)
{
    RegionAllocator alloc(1000, 4096);
    auto a = alloc.allocate(100);
    auto b = alloc.allocate(200);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_NE(*a, *b);
    EXPECT_EQ(alloc.bytesInUse(), 300u);
    alloc.deallocate(*a);
    alloc.deallocate(*b);
    EXPECT_EQ(alloc.bytesInUse(), 0u);
    EXPECT_TRUE(alloc.checkInvariants());
}

TEST(RegionAllocator, AlignmentHonored)
{
    RegionAllocator alloc(1, 1 * MiB);
    for (std::size_t align : {16ul, 64ul, 4096ul}) {
        auto a = alloc.allocate(10, align);
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ(*a % align, 0u);
    }
    EXPECT_TRUE(alloc.checkInvariants());
}

TEST(RegionAllocator, ExhaustionReturnsNullopt)
{
    RegionAllocator alloc(0, 1024);
    auto a = alloc.allocate(1024);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(alloc.allocate(1).has_value());
    alloc.deallocate(*a);
    EXPECT_TRUE(alloc.allocate(1024).has_value());
}

TEST(RegionAllocator, CoalescingReassemblesRegion)
{
    RegionAllocator alloc(0, 4096);
    std::vector<Addr> blocks;
    for (int i = 0; i < 4; ++i) {
        auto a = alloc.allocate(1024, 1);
        ASSERT_TRUE(a.has_value());
        blocks.push_back(*a);
    }
    // Free out of order; afterwards one full-size block must fit.
    alloc.deallocate(blocks[2]);
    alloc.deallocate(blocks[0]);
    alloc.deallocate(blocks[3]);
    alloc.deallocate(blocks[1]);
    EXPECT_TRUE(alloc.checkInvariants());
    EXPECT_TRUE(alloc.allocate(4096, 1).has_value());
}

TEST(RegionAllocator, ExtendAddsCapacity)
{
    RegionAllocator alloc(0, 1024);
    ASSERT_TRUE(alloc.allocate(1024, 1).has_value());
    EXPECT_FALSE(alloc.allocate(512, 1).has_value());
    alloc.extend(1024);
    EXPECT_TRUE(alloc.allocate(512, 1).has_value());
    EXPECT_EQ(alloc.totalSize(), 2048u);
    EXPECT_TRUE(alloc.checkInvariants());
}

TEST(RegionAllocator, DoubleFreeIsFatal)
{
    RegionAllocator alloc(0, 1024);
    auto a = alloc.allocate(64);
    alloc.deallocate(*a);
    EXPECT_THROW(alloc.deallocate(*a), PanicError);
}

/** Property sweep: random alloc/free traffic preserves invariants. */
class RegionAllocatorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RegionAllocatorProperty, RandomTrafficKeepsInvariants)
{
    Rng rng(GetParam());
    RegionAllocator alloc(pageSize, 256 * KiB);
    std::vector<Addr> live;
    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.chance(0.6)) {
            std::size_t size = 1 + rng.below(2000);
            std::size_t align = 1ULL << rng.below(7);
            auto a = alloc.allocate(size, align);
            if (a.has_value()) {
                EXPECT_EQ(*a % align, 0u);
                EXPECT_EQ(alloc.allocationSize(*a), size);
                live.push_back(*a);
            }
        } else {
            std::size_t victim = rng.below(live.size());
            alloc.deallocate(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        if (step % 200 == 0)
            ASSERT_TRUE(alloc.checkInvariants());
    }
    for (Addr a : live)
        alloc.deallocate(a);
    EXPECT_TRUE(alloc.checkInvariants());
    EXPECT_EQ(alloc.bytesInUse(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionAllocatorProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

/** A coherent FPGA whose first three VFMem pages are resident, so the
 *  dirty-line masks of their frames can be marked and read. */
class DirtyMask : public ::testing::Test
{
  protected:
    DirtyMask() : controller(1 * MiB), node(fabric, 1, 16 * MiB)
    {
        controller.registerNode(node);
        FpgaConfig cfg;
        cfg.vfmemSize = 4 * MiB;
        cfg.fmemSize = 1 * MiB;
        fpga = std::make_unique<CoherentFpga>(fabric, 0, cfg);
        base = cfg.vfmemBase;
        fpga->translation().addSlab(
            base, *controller.allocateSlab(
                      PlacementRequest{.required = true}));
        SimClock clock;
        for (Addr p = 0; p < 3; ++p)
            fpga->serveLine(base + p * pageSize, AccessType::Read, clock);
    }

    std::uint64_t mask(Addr p) const
    {
        return fpga->dirtyMask(pageNumber(base) + p);
    }

    Fabric fabric;
    Controller controller;
    MemoryNode node;
    std::unique_ptr<CoherentFpga> fpga;
    Addr base = 0;
};

TEST_F(DirtyMask, MarkLineAndRange)
{
    fpga->onWriteback(base);
    fpga->onWriteback(base + 64);
    EXPECT_EQ(mask(0), 0b11u);
    fpga->markDirtyRange(base + pageSize + 100, 200);   // lines 1..4
    EXPECT_EQ(mask(1), 0b11110u);
    EXPECT_EQ(mask(2), 0u);
}

TEST_F(DirtyMask, RangeSpanningPages)
{
    // The last line of page 0 and the first of page 1.
    fpga->markDirtyRange(base + pageSize - 64, 128);
    EXPECT_EQ(mask(0), 1ULL << 63);
    EXPECT_EQ(mask(1), 1ULL);
}

TEST_F(DirtyMask, WholePagesAndClear)
{
    fpga->markDirtyRange(base, 2 * pageSize);
    fpga->onWriteback(base + 2 * pageSize);
    EXPECT_EQ(mask(0), ~0ULL);
    EXPECT_EQ(mask(1), ~0ULL);
    fpga->clearDirty(pageNumber(base));
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), ~0ULL);
    fpga->orDirtyMask(pageNumber(base), 0b101);
    EXPECT_EQ(mask(0), 0b101u);
    EXPECT_EQ(mask(2), 1u);
}

TEST(DirtyMaskSegments, SegmentCounting)
{
    EXPECT_EQ(segmentCount(0), 0u);
    EXPECT_EQ(segmentCount(0b1), 1u);
    EXPECT_EQ(segmentCount(0b1011), 2u);
    EXPECT_EQ(segmentCount(0b1010101), 4u);
    EXPECT_EQ(segmentCount(~0ULL), 1u);
    EXPECT_EQ(segmentCount(1ULL << 63 | 1ULL), 2u);
}

TEST(PageSnapshot, DiffDetectsChangedLines)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    std::uint64_t v = 1;
    store.write(0, &v, sizeof(v));
    snaps.capture(0, store);
    EXPECT_EQ(snaps.diffLines(0, store), 0u);

    v = 2;
    store.write(0, &v, sizeof(v));            // line 0
    store.write(10 * cacheLineSize, &v, 8);   // line 10
    std::uint64_t mask = snaps.diffLines(0, store);
    EXPECT_EQ(mask, (1ULL << 0) | (1ULL << 10));
}

TEST(PageSnapshot, DiffAndRefreshResets)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    snaps.capture(0, store);
    std::uint32_t v = 7;
    store.write(100, &v, sizeof(v));
    EXPECT_NE(snaps.diffAndRefresh(0, store), 0u);
    EXPECT_EQ(snaps.diffAndRefresh(0, store), 0u);   // now clean
}

TEST(PageSnapshot, UncapturedPagesDiffClean)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    EXPECT_EQ(snaps.diffLines(99, store), 0u);
    // diffAndRefresh captures on first call.
    EXPECT_EQ(snaps.diffAndRefresh(99, store), 0u);
    EXPECT_TRUE(snaps.has(99));
    snaps.release(99);
    EXPECT_FALSE(snaps.has(99));
}

TEST(PageSnapshot, WriteOfSameValueIsClean)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    std::uint64_t v = 0xabcdef;
    store.write(0, &v, sizeof(v));
    snaps.capture(0, store);
    store.write(0, &v, sizeof(v));   // identical bytes
    EXPECT_EQ(snaps.diffLines(0, store), 0u);
}

} // namespace
} // namespace kona
