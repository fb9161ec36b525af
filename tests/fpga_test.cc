/**
 * @file
 * Unit tests for src/fpga: FMem tag management, remote translation
 * (incl. replicas and fail-over), and the CoherentFpga's two hardware
 * primitives — serving line requests and tracking writebacks.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fpga/coherent_fpga.h"
#include "rack/controller.h"

namespace kona {
namespace {

TEST(FMemCache, InsertLookupRemove)
{
    FMemCache fmem(16 * pageSize, 4);   // 4 sets x 4 ways
    EXPECT_EQ(fmem.numSets(), 4u);
    EXPECT_FALSE(fmem.lookup(100).has_value());
    std::size_t frame = fmem.insert(100);
    EXPECT_LT(frame, fmem.frames());
    auto hit = fmem.lookup(100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, frame);
    fmem.remove(100);
    EXPECT_FALSE(fmem.contains(100));
    EXPECT_TRUE(fmem.checkInvariants());
}

TEST(FMemCache, VictimOnlyWhenSetFull)
{
    FMemCache fmem(8 * pageSize, 4);   // 2 sets x 4 ways
    // Pages 0,2,4,6 map to set 0.
    for (Addr vpn : {0, 2, 4, 6}) {
        EXPECT_FALSE(fmem.victimFor(vpn).has_value());
        fmem.insert(vpn);
    }
    auto victim = fmem.victimFor(8);   // set 0 again
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->vfmemPage, 0u);   // LRU
    // Touch 0 to refresh LRU: the victim changes.
    fmem.lookup(0);
    victim = fmem.victimFor(8);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->vfmemPage, 2u);
    // Other set unaffected.
    EXPECT_FALSE(fmem.victimFor(1).has_value());
}

TEST(FMemCache, InsertIntoFullSetIsFatal)
{
    FMemCache fmem(4 * pageSize, 4);   // 1 set
    for (Addr vpn = 0; vpn < 4; ++vpn)
        fmem.insert(vpn);
    EXPECT_THROW(fmem.insert(4), PanicError);
}

/**
 * Collect overOccupiedVictims through the fixed-buffer protocol the
 * way EvictionHandler::pump does: count, size, re-ask.
 */
std::vector<FMemCache::Victim>
victimsOf(const FMemCache &fmem, std::size_t freeWays)
{
    std::size_t owed = fmem.overOccupiedVictims(freeWays, nullptr, 0);
    std::vector<FMemCache::Victim> out(owed);
    if (owed > 0)
        EXPECT_EQ(fmem.overOccupiedVictims(freeWays, out.data(),
                                           out.size()),
                  owed);
    return out;
}

TEST(FMemCache, OverOccupiedVictims)
{
    FMemCache fmem(8 * pageSize, 4);
    for (Addr vpn : {0, 2, 4, 6})
        fmem.insert(vpn);   // set 0 full
    fmem.insert(1);         // set 1 one way used
    auto victims = victimsOf(fmem, 1);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].vfmemPage, 0u);
    victims = victimsOf(fmem, 2);
    // Set 0 needs 2 free ways -> 2 victims; set 1 has 3 free already.
    EXPECT_EQ(victims.size(), 2u);
}

TEST(FMemCache, OverOccupiedVictimsSkipsFencedWays)
{
    FMemCache fmem(8 * pageSize, 4);   // 2 sets x 4 ways
    for (Addr vpn : {0, 2, 4, 6})
        fmem.insert(vpn);   // set 0 full, LRU order 6,4,2,0 (MRU first)
    for (Addr vpn : {1, 3, 5, 7})
        fmem.insert(vpn);   // set 1 full too

    // Fence set 0's two LRU ways (0 and 2): background eviction must
    // look past them and pick the next-oldest unfenced way.
    fmem.setEvictionInFlight(0, true);
    fmem.setEvictionInFlight(2, true);
    auto victims = victimsOf(fmem, 1);
    ASSERT_EQ(victims.size(), 2u);   // one per full set
    EXPECT_EQ(victims[0].vfmemPage, 4u);   // set 0: oldest unfenced
    EXPECT_EQ(victims[1].vfmemPage, 1u);   // set 1: plain LRU

    // Fence ALL of set 0: the pump gets nothing from that set (every
    // candidate is already on its way out), and set 1 is unaffected.
    fmem.setEvictionInFlight(4, true);
    fmem.setEvictionInFlight(6, true);
    victims = victimsOf(fmem, 2);
    ASSERT_EQ(victims.size(), 2u);
    EXPECT_EQ(victims[0].vfmemPage, 1u);
    EXPECT_EQ(victims[1].vfmemPage, 3u);

    // Fence every way of every set: nothing to pump at all (and the
    // count-first path returns an empty vector without reserving).
    for (Addr vpn : {1, 3, 5, 7})
        fmem.setEvictionInFlight(vpn, true);
    EXPECT_TRUE(victimsOf(fmem, 4).empty());

    // Unfencing restores eligibility.
    fmem.setEvictionInFlight(0, false);
    victims = victimsOf(fmem, 1);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].vfmemPage, 0u);
    EXPECT_TRUE(fmem.checkInvariants());
}

TEST(FMemCache, ResidentPagesEnumeration)
{
    FMemCache fmem(16 * pageSize, 4);
    fmem.insert(3);
    fmem.insert(7);
    auto pages = fmem.residentPages();
    EXPECT_EQ(pages.size(), 2u);
    EXPECT_EQ(fmem.pagesResident(), 2u);
}

TEST(FMemCache, RandomTrafficKeepsInvariants)
{
    FMemCache fmem(64 * pageSize, 4);
    Rng rng(21);
    std::vector<Addr> resident;
    for (int step = 0; step < 3000; ++step) {
        Addr vpn = rng.below(512);
        if (fmem.contains(vpn)) {
            if (rng.chance(0.3)) {
                fmem.remove(vpn);
                resident.erase(std::find(resident.begin(),
                                         resident.end(), vpn));
            } else {
                fmem.lookup(vpn);
            }
        } else {
            auto victim = fmem.victimFor(vpn);
            if (victim.has_value()) {
                fmem.remove(victim->vfmemPage);
                resident.erase(std::find(resident.begin(),
                                         resident.end(),
                                         victim->vfmemPage));
            }
            fmem.insert(vpn);
            resident.push_back(vpn);
        }
    }
    EXPECT_TRUE(fmem.checkInvariants());
    EXPECT_EQ(fmem.pagesResident(), resident.size());
}

TEST(RemoteTranslation, RangeLookup)
{
    RemoteTranslation xlate;
    SlabGrant g;
    g.slab = 1;
    g.where = {5, 0x8000};
    g.size = 0x4000;
    g.regionKey = 9;
    xlate.addSlab(0x100000, g);

    RemoteLocation loc = xlate.translate(0x100000 + 0x123);
    EXPECT_EQ(loc.node, 5u);
    EXPECT_EQ(loc.addr, 0x8123u);
    EXPECT_EQ(loc.regionKey, 9u);
    EXPECT_TRUE(xlate.mapped(0x100000 + 0x3fff));
    EXPECT_FALSE(xlate.mapped(0x100000 + 0x4000));
    EXPECT_FALSE(xlate.mapped(0xff));
    EXPECT_THROW(xlate.translate(0x200000), FatalError);
}

TEST(RemoteTranslation, ReplicasAndPromotion)
{
    RemoteTranslation xlate;
    SlabGrant primary{1, {5, 0x0}, 0x1000, 1};
    SlabGrant replica{2, {6, 0x9000}, 0x1000, 2};
    xlate.addSlab(0, primary, {replica});

    CopySet all = xlate.copies(0x10);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].node, 5u);
    EXPECT_EQ(all[1].node, 6u);
    EXPECT_EQ(all[1].addr, 0x9010u);

    xlate.promoteReplica(0x10, 0);
    EXPECT_EQ(xlate.translate(0x10).node, 6u);
}

/** Full FPGA stack over a one-node rack. */
class FpgaFixture : public ::testing::Test
{
  protected:
    FpgaFixture() : controller(1 * MiB)
    {
        node = std::make_unique<MemoryNode>(fabric, 7, 32 * MiB);
        controller.registerNode(*node);
        FpgaConfig cfg;
        cfg.vfmemBase = 0x400000000000ULL;
        cfg.vfmemSize = 8 * MiB;
        cfg.fmemSize = 1 * MiB;   // 256 frames
        fpga = std::make_unique<CoherentFpga>(fabric, 0, cfg);

        // Map four contiguous slabs at the base of VFMem.
        base = cfg.vfmemBase;
        for (int i = 0; i < 4; ++i) {
            SlabGrant g = *controller.allocateSlab(
                PlacementRequest{.required = true});
            fpga->translation().addSlab(base + i * g.size, g);
            if (i == 0)
                slab = g;
        }
    }

    Fabric fabric;
    Controller controller;
    std::unique_ptr<MemoryNode> node;
    std::unique_ptr<CoherentFpga> fpga;
    Addr base = 0;
    SlabGrant slab;
};

TEST_F(FpgaFixture, ServeLineFetchesThenHits)
{
    SimClock clock;
    EXPECT_FALSE(fpga->pageResident(pageNumber(base)));
    ServeStatus s1 = fpga->serveLine(base, AccessType::Read, clock);
    EXPECT_EQ(s1, ServeStatus::RemoteFetch);
    EXPECT_TRUE(fpga->pageResident(pageNumber(base)));
    Tick afterFetch = clock.now();
    EXPECT_GT(afterFetch, 2000u);   // an RDMA page fetch is ~3us

    ServeStatus s2 = fpga->serveLine(base + 64, AccessType::Read,
                                     clock);
    EXPECT_EQ(s2, ServeStatus::FMemHit);
    EXPECT_LT(clock.now() - afterFetch, 500u);   // NUMA-ish latency
    EXPECT_EQ(fpga->remoteFetches(), 1u);
}

TEST_F(FpgaFixture, FunctionalReadSeesRemoteData)
{
    // Seed bytes directly on the memory node, then read via VFMem.
    std::uint64_t magic = 0xfeedface;
    node->store().write(slab.where.offset + 128, &magic,
                        sizeof(magic));
    SimClock clock;
    fpga->serveLine(base + 128, AccessType::Read, clock);
    std::uint64_t check = 0;
    fpga->readBytes(base + 128, &check, sizeof(check));
    EXPECT_EQ(check, magic);
}

TEST_F(FpgaFixture, WritebackObservationMarksDirtyLines)
{
    SimClock clock;
    fpga->serveLine(base, AccessType::Write, clock);
    EXPECT_EQ(fpga->dirtyMask(pageNumber(base)), 0u);
    fpga->onWriteback(base + 2 * cacheLineSize);
    fpga->onWriteback(base + 5 * cacheLineSize);
    EXPECT_EQ(fpga->dirtyMask(pageNumber(base)),
              (1ULL << 2) | (1ULL << 5));
    EXPECT_EQ(fpga->writebacksObserved(), 2u);
    fpga->clearDirty(pageNumber(base));
    EXPECT_EQ(fpga->dirtyMask(pageNumber(base)), 0u);
}

TEST_F(FpgaFixture, DirtyMarkOnNonResidentPagePanics)
{
    // A mask lives in the page's FMem frame; an absent page has none,
    // so a mark aimed at one is an invariant violation, not a no-op.
    const Addr vpn = pageNumber(base);
    EXPECT_THROW(fpga->onWriteback(base + cacheLineSize), PanicError);
    EXPECT_THROW(fpga->markDirtyRange(base, 8), PanicError);
    EXPECT_THROW(fpga->orDirtyMask(vpn, 1), PanicError);
    EXPECT_NO_THROW(fpga->orDirtyMask(vpn, 0));
    EXPECT_EQ(fpga->dirtyMask(vpn), 0u);
}

TEST_F(FpgaFixture, DroppingADirtyPagePanics)
{
    SimClock clock;
    const Addr vpn = pageNumber(base);
    fpga->serveLine(base, AccessType::Read, clock);
    fpga->onWriteback(base + cacheLineSize);
    // Its dirty line never shipped: the drop must not lose it.
    EXPECT_THROW(fpga->dropPage(vpn), PanicError);
    EXPECT_TRUE(fpga->pageResident(vpn));
    fpga->clearDirty(vpn);
    EXPECT_NO_THROW(fpga->dropPage(vpn));
    EXPECT_FALSE(fpga->pageResident(vpn));
}

TEST_F(FpgaFixture, WritebacksOutsideVFMemIgnored)
{
    fpga->onWriteback(0x1234);   // a CMem address
    EXPECT_EQ(fpga->writebacksObserved(), 0u);
}

TEST_F(FpgaFixture, EvictionCallbackFiresOnSetConflict)
{
    // FMem: 1MB 4-way => 64 sets. Pages vpn, vpn+64, ... collide.
    SimClock clock;
    int evictions = 0;
    fpga->setEvictionCallback(
        [&](const FMemCache::Victim &victim, SimClock &cb) {
            (void)cb;
            ++evictions;
            fpga->dropPage(victim.vfmemPage);
        });
    Addr vpn0 = pageNumber(base);
    std::size_t sets = fpga->fmem().numSets();
    for (std::size_t i = 0; i < 5; ++i) {
        Addr addr = base + i * sets * pageSize;   // same set each time
        fpga->serveLine(addr, AccessType::Read, clock);
    }
    EXPECT_EQ(evictions, 1);
    EXPECT_FALSE(fpga->pageResident(vpn0));
}

TEST_F(FpgaFixture, PrefetchNextPage)
{
    FpgaConfig cfg = fpga->config();
    cfg.prefetchPolicy = "next:1";
    CoherentFpga pf(fabric, 2, cfg);
    pf.translation().addSlab(cfg.vfmemBase, slab);

    SimClock clock;
    pf.serveLine(cfg.vfmemBase, AccessType::Read, clock);
    EXPECT_TRUE(pf.pageResident(pageNumber(cfg.vfmemBase) + 1));
    EXPECT_EQ(pf.prefetches(), 1u);
    EXPECT_GT(pf.backgroundTime(), 0u);   // charged off critical path
}

TEST_F(FpgaFixture, FailoverToReplica)
{
    // Second node with a replica of the slab.
    MemoryNode node2(fabric, 8, 32 * MiB);
    controller.registerNode(node2);
    SlabGrant replica =
        *controller.allocateSlab(PlacementRequest{.required = true});
    ASSERT_EQ(replica.where.node, 8u);

    FpgaConfig cfg = fpga->config();
    CoherentFpga ha(fabric, 3, cfg);
    ha.translation().addSlab(cfg.vfmemBase, slab, {replica});

    // Seed distinct data on the replica so we can see who served it.
    std::uint32_t fromReplica = 0x5ec0dda;
    node2.store().write(replica.where.offset, &fromReplica,
                        sizeof(fromReplica));

    fabric.setNodeDown(7, true);
    SimClock clock;
    ServeStatus s = ha.serveLine(cfg.vfmemBase, AccessType::Read,
                                 clock);
    EXPECT_EQ(s, ServeStatus::RemoteFetch);
    std::uint32_t check = 0;
    ha.readBytes(cfg.vfmemBase, &check, sizeof(check));
    EXPECT_EQ(check, fromReplica);
    // The replica was promoted to primary.
    EXPECT_EQ(ha.translation().translate(cfg.vfmemBase).node, 8u);
    fabric.setNodeDown(7, false);
}

TEST_F(FpgaFixture, AllReplicasDownIsUnavailable)
{
    fabric.setNodeDown(7, true);
    SimClock clock;
    ServeStatus s = fpga->serveLine(base, AccessType::Read, clock);
    EXPECT_EQ(s, ServeStatus::RemoteUnavailable);
    EXPECT_EQ(fpga->fetchFailures(), 1u);
    fabric.setNodeDown(7, false);
    EXPECT_EQ(fpga->serveLine(base, AccessType::Read, clock),
              ServeStatus::RemoteFetch);
}

TEST_F(FpgaFixture, WriteBytesRoundTrip)
{
    SimClock clock;
    fpga->serveLine(base + pageSize, AccessType::Write, clock);
    std::vector<std::uint8_t> data(300);
    Rng rng(31);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    fpga->writeBytes(base + pageSize + 50, data.data(), data.size());
    std::vector<std::uint8_t> check(data.size());
    fpga->readBytes(base + pageSize + 50, check.data(), check.size());
    EXPECT_EQ(check, data);
}

TEST_F(FpgaFixture, NonResidentFunctionalAccessIsFatal)
{
    std::uint8_t b = 0;
    EXPECT_THROW(fpga->readBytes(base, &b, 1), PanicError);
}

} // namespace
} // namespace kona
