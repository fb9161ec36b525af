/**
 * @file
 * Differential oracles for the flat-array hot-path stores.
 *
 * The simulator's per-access path was rebuilt on flat arrays (see
 * DESIGN.md "Simulator performance"); these tests keep the legacy
 * list-/map-based implementations alive as reference models and drive
 * both through long randomized traces, asserting that every
 * observable — hit/miss outcomes, victim sequences, writeback counts,
 * flush/invalidate results, frame placement, dirty-line masks —
 * matches the historical behaviour exactly. The cache and FMem
 * geometries include set counts that are not powers of two, so both
 * set-index paths (mask and division) meet the reference.
 *
 * The last oracle is an invariant rather than a reference model: on
 * randomized runs of the whole Kona stack, the FPGA's per-frame snoop
 * filter must cover every line the CPU caches hold, because snooping
 * only the filter's lines is what replaced the 64-line page walk.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "coherence/agent.h"
#include "common/rng.h"
#include "core/kona_runtime.h"
#include "fpga/fmem_cache.h"
#include "rack/multi_rack.h"

namespace kona {
namespace {

// ---------------------------------------------------------------------
// Legacy list-based SetAssocCache (the pre-flat-array implementation),
// kept verbatim as the behavioural reference.
// ---------------------------------------------------------------------

struct RefEviction
{
    Addr blockAddr = 0;
    bool dirty = false;
    bool valid = false;
};

class ListCacheRef
{
  public:
    explicit ListCacheRef(const CacheConfig &config) : config_(config)
    {
        numSets_ = config.sizeBytes /
                   (config.blockSize * config.associativity);
        sets_.resize(numSets_);
    }

    CacheOutcome
    access(Addr addr, AccessType type, RefEviction &eviction)
    {
        Addr blockNum = addr / config_.blockSize;
        Set &set = sets_[setIndex(blockNum)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == blockNum) {
                if (type == AccessType::Write)
                    it->dirty = true;
                set.splice(set.begin(), set, it);
                ++hits;
                eviction.valid = false;
                return CacheOutcome::Hit;
            }
        }
        ++misses;
        evictIfFull(set, eviction);
        set.push_front({blockNum, type == AccessType::Write});
        return CacheOutcome::Miss;
    }

    void
    fillDirty(Addr addr, RefEviction &eviction)
    {
        Addr blockNum = addr / config_.blockSize;
        Set &set = sets_[setIndex(blockNum)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == blockNum) {
                it->dirty = true;
                set.splice(set.begin(), set, it);
                eviction.valid = false;
                return;
            }
        }
        evictIfFull(set, eviction);
        set.push_front({blockNum, true});
    }

    bool
    contains(Addr addr) const
    {
        Addr blockNum = addr / config_.blockSize;
        const Set &set = sets_[setIndex(blockNum)];
        for (const Way &way : set) {
            if (way.tag == blockNum)
                return true;
        }
        return false;
    }

    std::optional<bool>
    invalidateBlock(Addr addr)
    {
        Addr blockNum = addr / config_.blockSize;
        Set &set = sets_[setIndex(blockNum)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == blockNum) {
                bool dirty = it->dirty;
                set.erase(it);
                return dirty;
            }
        }
        return std::nullopt;
    }

    std::vector<RefEviction>
    flushAll()
    {
        std::vector<RefEviction> evictions;
        for (Set &set : sets_) {
            for (const Way &way : set) {
                if (way.dirty)
                    ++writebacks;
                evictions.push_back({way.tag * config_.blockSize,
                                     way.dirty, true});
            }
            set.clear();
        }
        return evictions;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Way
    {
        Addr tag;
        bool dirty;
    };
    using Set = std::list<Way>;

    void
    evictIfFull(Set &set, RefEviction &eviction)
    {
        if (set.size() >= config_.associativity) {
            const Way &victim = set.back();
            if (victim.dirty)
                ++writebacks;
            eviction = {victim.tag * config_.blockSize, victim.dirty,
                        true};
            set.pop_back();
        } else {
            eviction.valid = false;
        }
    }

    std::size_t setIndex(Addr blockNum) const
    {
        return static_cast<std::size_t>(blockNum % numSets_);
    }

    CacheConfig config_;
    std::size_t numSets_;
    std::vector<Set> sets_;
};

CacheConfig
geometry(std::size_t sets, std::size_t ways, std::size_t block)
{
    CacheConfig cfg;
    cfg.name = "diff";
    cfg.blockSize = block;
    cfg.associativity = ways;
    cfg.sizeBytes = sets * ways * block;
    return cfg;
}

struct DiffGeometry
{
    std::size_t sets, ways, block;
};

class CacheDifferential : public ::testing::TestWithParam<DiffGeometry>
{
};

TEST_P(CacheDifferential, MatchesLegacyListImplementation)
{
    const DiffGeometry &g = GetParam();
    CacheConfig cfg = geometry(g.sets, g.ways, g.block);
    SetAssocCache cache(cfg);
    ListCacheRef ref(cfg);
    Rng rng(0xd1ffull + g.sets * 31 + g.ways);
    Addr span = g.sets * g.ways * g.block * 4;

    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(span);
        double dice = rng.uniform();
        CacheEviction ev;
        RefEviction refEv;
        if (dice < 0.60) {
            auto type = rng.chance(0.3) ? AccessType::Write
                                        : AccessType::Read;
            CacheOutcome got = cache.access(addr, type, ev);
            CacheOutcome want = ref.access(addr, type, refEv);
            ASSERT_EQ(got, want) << "access #" << i;
            ASSERT_EQ(ev.valid, refEv.valid) << "access #" << i;
            if (ev.valid) {
                ASSERT_EQ(ev.blockAddr, refEv.blockAddr)
                    << "access #" << i;
                ASSERT_EQ(ev.dirty, refEv.dirty) << "access #" << i;
            }
        } else if (dice < 0.75) {
            cache.fillDirty(addr, ev);
            ref.fillDirty(addr, refEv);
            ASSERT_EQ(ev.valid, refEv.valid) << "fill #" << i;
            if (ev.valid) {
                ASSERT_EQ(ev.blockAddr, refEv.blockAddr)
                    << "fill #" << i;
                ASSERT_EQ(ev.dirty, refEv.dirty) << "fill #" << i;
            }
        } else if (dice < 0.85) {
            ASSERT_EQ(cache.invalidateBlock(addr),
                      ref.invalidateBlock(addr))
                << "invalidate #" << i;
        } else if (dice < 0.98) {
            ASSERT_EQ(cache.contains(addr), ref.contains(addr))
                << "contains #" << i;
        } else {
            std::vector<CacheEviction> flushed;
            cache.flushAll(flushed);
            std::vector<RefEviction> refFlushed = ref.flushAll();
            ASSERT_EQ(flushed.size(), refFlushed.size())
                << "flush #" << i;
            for (std::size_t k = 0; k < flushed.size(); ++k) {
                ASSERT_EQ(flushed[k].blockAddr,
                          refFlushed[k].blockAddr);
                ASSERT_EQ(flushed[k].dirty, refFlushed[k].dirty);
            }
        }
        ASSERT_TRUE(cache.checkInvariants()) << "op #" << i;
    }
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.writebacks(), ref.writebacks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(DiffGeometry{1, 1, 64}, DiffGeometry{4, 2, 64},
                      DiffGeometry{16, 8, 64},
                      DiffGeometry{64, 16, 64},
                      DiffGeometry{8, 4, 4096},
                      DiffGeometry{2, 4, 1024},
                      DiffGeometry{3, 2, 64},
                      DiffGeometry{134, 4, 64}));

// ---------------------------------------------------------------------
// Legacy list-based FMemCache reference (per-set std::list plus
// per-set free-frame vectors, exactly as before the flat layout).
// ---------------------------------------------------------------------

class ListFMemRef
{
  public:
    ListFMemRef(std::size_t sizeBytes, std::size_t associativity)
        : assoc_(associativity)
    {
        std::size_t frames = sizeBytes / pageSize;
        numSets_ = frames / assoc_;
        sets_.resize(numSets_);
        freeFrames_.resize(numSets_);
        for (std::size_t set = 0; set < numSets_; ++set) {
            for (std::size_t way = 0; way < assoc_; ++way)
                freeFrames_[set].push_back(set * assoc_ + way);
        }
    }

    std::optional<std::size_t>
    lookup(Addr vpn)
    {
        Set &set = sets_[setOf(vpn)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->vpn == vpn) {
                set.splice(set.begin(), set, it);
                ++hits;
                return it->frame;
            }
        }
        ++misses;
        return std::nullopt;
    }

    bool
    contains(Addr vpn) const
    {
        const Set &set = sets_[setOf(vpn)];
        for (const Way &way : set) {
            if (way.vpn == vpn)
                return true;
        }
        return false;
    }

    std::optional<std::size_t>
    frameOf(Addr vpn) const
    {
        const Set &set = sets_[setOf(vpn)];
        for (const Way &way : set) {
            if (way.vpn == vpn)
                return way.frame;
        }
        return std::nullopt;
    }

    std::size_t
    insert(Addr vpn)
    {
        std::size_t si = setOf(vpn);
        std::size_t frame = freeFrames_[si].back();
        freeFrames_[si].pop_back();
        sets_[si].push_front({vpn, frame, false});
        return frame;
    }

    void
    setEvictionInFlight(Addr vpn, bool inFlight)
    {
        for (Way &way : sets_[setOf(vpn)]) {
            if (way.vpn == vpn) {
                way.evicting = inFlight;
                return;
            }
        }
    }

    std::optional<FMemCache::Victim>
    victimFor(Addr vpn) const
    {
        std::size_t si = setOf(vpn);
        if (!freeFrames_[si].empty())
            return std::nullopt;
        for (auto it = sets_[si].rbegin(); it != sets_[si].rend();
             ++it) {
            if (!it->evicting)
                return FMemCache::Victim{it->vpn, it->frame};
        }
        const Way &lru = sets_[si].back();
        return FMemCache::Victim{lru.vpn, lru.frame};
    }

    void
    remove(Addr vpn)
    {
        std::size_t si = setOf(vpn);
        Set &set = sets_[si];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->vpn == vpn) {
                freeFrames_[si].push_back(it->frame);
                set.erase(it);
                return;
            }
        }
        FAIL() << "reference remove of absent page " << vpn;
    }

    std::vector<FMemCache::Victim>
    overOccupiedVictims(std::size_t freeWays) const
    {
        std::vector<FMemCache::Victim> victims;
        for (std::size_t si = 0; si < numSets_; ++si) {
            std::size_t free = freeFrames_[si].size();
            if (free >= freeWays)
                continue;
            std::size_t need = freeWays - free;
            for (auto it = sets_[si].rbegin();
                 need > 0 && it != sets_[si].rend(); ++it) {
                if (it->evicting)
                    continue;
                victims.push_back({it->vpn, it->frame});
                --need;
            }
        }
        return victims;
    }

    std::vector<Addr>
    residentPages() const
    {
        std::vector<Addr> pages;
        for (const Set &set : sets_) {
            for (const Way &way : set)
                pages.push_back(way.vpn);
        }
        return pages;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Way
    {
        Addr vpn;
        std::size_t frame;
        bool evicting = false;
    };
    using Set = std::list<Way>;

    std::size_t setOf(Addr vpn) const { return vpn % numSets_; }

    std::size_t assoc_;
    std::size_t numSets_;
    std::vector<Set> sets_;
    std::vector<std::vector<std::size_t>> freeFrames_;
};

class FMemDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FMemDifferential, MatchesLegacyListImplementation)
{
    const std::size_t sets = GetParam();
    const std::size_t sizeBytes = sets * 4 * pageSize;
    FMemCache fmem(sizeBytes, 4);
    ListFMemRef ref(sizeBytes, 4);
    Rng rng(0xf3e1ull);
    const Addr vpnSpan = sets * 4 * 3;   // 3x capacity

    for (int i = 0; i < 20000; ++i) {
        Addr vpn = rng.below(vpnSpan);
        double dice = rng.uniform();
        if (dice < 0.55) {
            // The serve-line pattern: lookup, evict a victim if the
            // set is full, insert.
            auto got = fmem.lookup(vpn);
            auto want = ref.lookup(vpn);
            ASSERT_EQ(got, want) << "lookup #" << i;
            if (!got.has_value()) {
                auto victim = fmem.victimFor(vpn);
                auto refVictim = ref.victimFor(vpn);
                ASSERT_EQ(victim.has_value(), refVictim.has_value());
                if (victim.has_value()) {
                    ASSERT_EQ(victim->vfmemPage,
                              refVictim->vfmemPage);
                    ASSERT_EQ(victim->frame, refVictim->frame);
                    fmem.remove(victim->vfmemPage);
                    ref.remove(refVictim->vfmemPage);
                }
                ASSERT_EQ(fmem.insert(vpn), ref.insert(vpn))
                    << "insert #" << i;
            }
        } else if (dice < 0.70) {
            ASSERT_EQ(fmem.contains(vpn), ref.contains(vpn));
            ASSERT_EQ(fmem.frameOf(vpn), ref.frameOf(vpn));
        } else if (dice < 0.80) {
            bool fence = rng.chance(0.5);
            fmem.setEvictionInFlight(vpn, fence);
            ref.setEvictionInFlight(vpn, fence);
        } else if (dice < 0.90) {
            std::size_t freeWays = 1 + rng.below(2);
            FMemCache::Victim got[64];
            std::size_t owed =
                fmem.overOccupiedVictims(freeWays, got, 64);
            ASSERT_LE(owed, 64u);
            auto want = ref.overOccupiedVictims(freeWays);
            ASSERT_EQ(owed, want.size()) << "pump #" << i;
            for (std::size_t k = 0; k < owed; ++k) {
                ASSERT_EQ(got[k].vfmemPage, want[k].vfmemPage);
                ASSERT_EQ(got[k].frame, want[k].frame);
            }
        } else if (dice < 0.97) {
            if (fmem.contains(vpn)) {
                fmem.remove(vpn);
                ref.remove(vpn);
            }
        } else {
            auto got = fmem.residentPages();
            auto want = ref.residentPages();
            ASSERT_EQ(got, want) << "resident #" << i;
        }
        ASSERT_TRUE(fmem.checkInvariants()) << "op #" << i;
        ASSERT_EQ(fmem.pagesResident(), ref.residentPages().size());
    }
    EXPECT_EQ(fmem.hits(), ref.hits);
    EXPECT_EQ(fmem.misses(), ref.misses);
}

INSTANTIATE_TEST_SUITE_P(SetCounts, FMemDifferential,
                         ::testing::Values(16, 12));

// ---------------------------------------------------------------------
// Snoop filter: every line any CPU cache level holds belongs to an
// FMem-resident page and is set in that frame's filter, so snooping
// the filter's lines has the effects of the full 64-line page walk.
// ---------------------------------------------------------------------

::testing::AssertionResult
filterCoversCaches(KonaRuntime &runtime)
{
    const CoherentFpga &fpga = runtime.fpga();
    const CacheHierarchy &caches = runtime.hierarchy();
    std::size_t uncovered = 0;
    Addr first = 0;
    for (std::size_t l = 0; l < caches.numLevels(); ++l) {
        caches.level(l).forEachBlock([&](Addr line, bool) {
            Addr vpn = pageNumber(line);
            bool covered = fpga.pageResident(vpn) &&
                           ((fpga.snoopFilter(vpn) >> lineInPage(line)) &
                            1) != 0;
            if (!covered && uncovered++ == 0)
                first = line;
        });
    }
    if (uncovered == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "node " << runtime.computeNode() << ": " << uncovered
           << " cached line(s) outside the snoop filter, first "
           << first
           << (fpga.pageResident(pageNumber(first))
                   ? " (page resident)"
                   : " (page not resident)");
}

/** A region accessed at random, with a shadow copy as content oracle. */
struct ShadowRegion
{
    ShadowRegion(Addr base, std::size_t bytes)
        : base(base), shadow(bytes, 0)
    {}

    /** One load or store of 1..160 bytes (it may straddle pages)
     *  through @p mem; false when a load disagrees with the shadow. */
    bool
    step(MemoryInterface &mem, Rng &rng)
    {
        std::size_t size = 1 + rng.below(160);
        std::size_t offset = rng.below(shadow.size() - size + 1);
        std::uint8_t buf[160];
        if (rng.chance(0.3)) {
            for (std::size_t i = 0; i < size; ++i)
                buf[i] = static_cast<std::uint8_t>(rng.next());
            mem.write(base + offset, buf, size);
            std::memcpy(shadow.data() + offset, buf, size);
            return true;
        }
        mem.read(base + offset, buf, size);
        return std::memcmp(buf, shadow.data() + offset, size) == 0;
    }

    Addr base;
    std::vector<std::uint8_t> shadow;
};

class SnoopFilterInvariant : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SnoopFilterInvariant, CoversCachesUnderEvictionAndAsyncSubmit)
{
    // FMem of 64 frames under an LLC eight times its size: most FMem
    // evictions find lines of the page still cached. Background pumps,
    // tiering demotions (with "ewma") and explicit submits leave pages
    // in flight while the application keeps reading them.
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 64 * MiB);
    controller.registerNode(node);
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    cfg.fpga.fmemSize = 64 * pageSize;
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.evict.pipelineDepth = 4;
    cfg.evict.pumpPeriod = 32;
    cfg.tiering = GetParam();
    KonaRuntime runtime(fabric, controller, 0, cfg);
    constexpr std::size_t pages = 192;
    ShadowRegion region(runtime.allocate(pages * pageSize, pageSize),
                        pages * pageSize);
    EvictionHandler &evictor = runtime.evictionHandler();

    Rng rng(0x5e00f11ull);
    for (int i = 0; i < 6000; ++i) {
        double dice = rng.uniform();
        if (dice < 0.08) {
            EvictionRequest req;
            Addr first = pageNumber(region.base) + rng.below(pages - 2);
            Addr count = 1 + rng.below(3);
            for (Addr p = 0; p < count; ++p)
                req.vpns.push_back(first + p);
            evictor.submit(req, runtime.backgroundClock());
        } else if (dice < 0.10) {
            evictor.poll(runtime.appClock());
        } else if (dice < 0.11) {
            evictor.drain(runtime.backgroundClock());
        } else {
            ASSERT_TRUE(region.step(runtime, rng)) << "op " << i;
        }
        ASSERT_TRUE(filterCoversCaches(runtime)) << "op " << i;
    }
    EXPECT_GT(evictor.pagesEvicted(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Tiering, SnoopFilterInvariant,
                         ::testing::Values("off", "ewma"));

TEST(SnoopFilterInvariantRack, CoversCachesUnderCoherence)
{
    // Two compute nodes share a governed region (remote invalidations
    // snoop through the filter) and each also churns a private heap
    // three times its FMem.
    MultiRackConfig cfg;
    cfg.computeNodes = 2;
    cfg.memoryNodes = 2;
    cfg.memoryBytes = 32 * MiB;
    cfg.runtime.fpga.vfmemSize = 64 * MiB;
    cfg.runtime.fpga.fmemSize = 64 * pageSize;
    cfg.runtime.hierarchy = HierarchyConfig::scaled();
    cfg.runtime.evict.pumpPeriod = 32;
    MultiRack rack(cfg);
    ShadowRegion shared(rack.mapShared("filter", 16 * pageSize),
                        16 * pageSize);
    std::vector<ShadowRegion> heaps;
    for (std::size_t r = 0; r < rack.runtimeCount(); ++r) {
        heaps.emplace_back(
            rack.runtime(r).allocate(192 * pageSize, pageSize),
            192 * pageSize);
    }

    Rng rng(0xc0fe11ull);
    for (int i = 0; i < 4000; ++i) {
        std::size_t r = rng.below(rack.runtimeCount());
        ShadowRegion &target = rng.chance(0.5) ? shared : heaps[r];
        ASSERT_TRUE(target.step(rack.runtime(r), rng))
            << "op " << i << " on node " << r;
        for (std::size_t n = 0; n < rack.runtimeCount(); ++n)
            ASSERT_TRUE(filterCoversCaches(rack.runtime(n)))
                << "op " << i;
    }
    EXPECT_GT(rack.runtime(0).coherenceAgent()->invalidationsReceived() +
                  rack.runtime(1).coherenceAgent()->invalidationsReceived(),
              100u);
}

// ---------------------------------------------------------------------
// Per-frame dirty masks against the hash-keyed DirtyLineBitmap they
// replaced, kept here as the reference model. The reference sees the
// same marks (the runtime's writes and the hierarchy's writebacks) and
// forgets a page when it leaves FMem. Evictions here are synchronous,
// so between operations no page is in flight: a shipped page has left
// FMem, and a failed one kept its packed lines. On every resident page
// the two must then agree, and no absent page may hold a mask.
// ---------------------------------------------------------------------

/** The pre-per-frame tracker: page number -> dirty-line mask. */
class DirtyLineBitmap
{
  public:
    /** Mark all cache-lines overlapped by [addr, addr+size) dirty. */
    void
    markRange(Addr addr, std::size_t size)
    {
        if (size == 0)
            return;
        Addr firstLine = alignDown(addr, cacheLineSize) / cacheLineSize;
        Addr lastLine =
            alignDown(addr + size - 1, cacheLineSize) / cacheLineSize;
        for (Addr pn = firstLine / linesPerPage;
             pn <= lastLine / linesPerPage; ++pn) {
            Addr lo = pn == firstLine / linesPerPage
                          ? firstLine % linesPerPage
                          : 0;
            Addr hi = pn == lastLine / linesPerPage
                          ? lastLine % linesPerPage
                          : linesPerPage - 1;
            std::uint64_t mask = hi - lo == 63
                                     ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1}
                                         << (hi - lo + 1)) -
                                        1)
                                           << lo;
            masks_[pn] |= mask;
        }
    }

    /** Mark the single cache-line containing @p addr dirty. */
    void
    markLine(Addr addr)
    {
        masks_[pageNumber(addr)] |= 1ULL << lineInPage(addr);
    }

    /** Dirty mask for page @p pn (0 if clean/untracked). */
    std::uint64_t
    pageMask(Addr pn) const
    {
        auto it = masks_.find(pn);
        return it == masks_.end() ? 0 : it->second;
    }

    /** Forget page @p pn. */
    void clearPage(Addr pn) { masks_.erase(pn); }

  private:
    std::unordered_map<Addr, std::uint64_t> masks_;
};

/** Passes the hierarchy's events to the FPGA and mirrors every VFMem
 *  writeback into the reference. */
class WritebackTee : public MemorySideListener
{
  public:
    WritebackTee(CoherentFpga &fpga, DirtyLineBitmap &ref)
        : fpga_(fpga), ref_(ref)
    {}

    void
    onLineRequest(Addr lineAddr, AccessType type) override
    {
        fpga_.onLineRequest(lineAddr, type);
    }

    void
    onWriteback(Addr lineAddr) override
    {
        fpga_.onWriteback(lineAddr);
        if (fpga_.inVFMem(lineAddr))
            ref_.markLine(lineAddr);
    }

  private:
    CoherentFpga &fpga_;
    DirtyLineBitmap &ref_;
};

class DirtyMaskDifferential
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DirtyMaskDifferential, MatchesHashKeyedBitmap)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    for (NodeId id = 1; id <= 3; ++id) {
        nodes.push_back(std::make_unique<MemoryNode>(fabric, id, 32 * MiB));
        controller.registerNode(*nodes.back());
    }
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    cfg.fpga.fmemSize = 64 * pageSize;
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.evict.pumpPeriod = 32;
    cfg.replicationFactor = GetParam();
    KonaRuntime runtime(fabric, controller, 0, cfg);
    CoherentFpga &fpga = runtime.fpga();
    EvictionHandler &evictor = runtime.evictionHandler();
    DirtyLineBitmap ref;
    WritebackTee tee(fpga, ref);
    runtime.hierarchy().setListener(&tee);
    fpga.setDropHook([&ref](Addr vpn) { ref.clearPage(vpn); });

    // Three slabs, so the pages' homes differ.
    constexpr std::size_t pages = 3 * 256;
    const Addr base = runtime.allocate(pages * pageSize, pageSize);
    const Addr firstVpn = pageNumber(base);
    auto agree = [&]() -> ::testing::AssertionResult {
        for (Addr vpn = firstVpn; vpn < firstVpn + pages; ++vpn) {
            const std::uint64_t want = ref.pageMask(vpn);
            const bool resident = fpga.pageResident(vpn);
            const std::uint64_t got = resident ? fpga.dirtyMask(vpn) : 0;
            if (got != want) {
                return ::testing::AssertionFailure()
                       << (resident ? "resident" : "absent") << " page "
                       << vpn << ": mask " << got << ", reference "
                       << want;
            }
        }
        return ::testing::AssertionSuccess();
    };

    Rng rng(0xd127ull + GetParam());
    std::uint64_t failedShipments = 0;
    std::uint8_t buf[160];
    for (int i = 0; i < 6000; ++i) {
        const double dice = rng.uniform();
        const Addr vpn = firstVpn + rng.below(pages);
        if (dice < 0.30) {
            // A write inside one page. The reference marks first: the
            // write cannot drop its own page before marking it, but a
            // pump after the mark may drop it.
            std::size_t size = 1 + rng.below(sizeof(buf));
            Addr addr = vpn * pageSize + rng.below(pageSize - size + 1);
            for (std::size_t b = 0; b < size; ++b)
                buf[b] = static_cast<std::uint8_t>(rng.next());
            ref.markRange(addr, size);
            runtime.write(addr, buf, size);
        } else if (dice < 0.90) {
            runtime.read(vpn * pageSize + rng.below(pageSize - 8), buf, 8);
        } else if (dice < 0.95) {
            runtime.hierarchy().flushAll();
        } else if (dice < 0.98) {
            evictor.evictBatch({vpn, vpn + 1 < firstVpn + pages ? vpn + 1
                                                                : vpn - 1},
                               runtime.backgroundClock());
        } else {
            // Every home of a dirty resident page down: the shipment
            // fails and the page keeps its packed lines.
            std::vector<Addr> dirty;
            for (Addr p : fpga.fmem().residentPages()) {
                if (fpga.dirtyMask(p) != 0)
                    dirty.push_back(p);
            }
            if (dirty.empty())
                continue;
            const Addr victim = dirty[rng.below(dirty.size())];
            const CopySet copies = fpga.replicas().copies(victim);
            for (std::size_t c = 0; c < copies.size(); ++c)
                fabric.setNodeDown(copies[c].node, true);
            evictor.evictBatch({victim}, runtime.backgroundClock());
            for (std::size_t c = 0; c < copies.size(); ++c)
                fabric.setNodeDown(copies[c].node, false);
            ASSERT_TRUE(fpga.pageResident(victim)) << "op " << i;
            ASSERT_NE(fpga.dirtyMask(victim), 0u) << "op " << i;
            ++failedShipments;
        }
        ASSERT_TRUE(agree()) << "op " << i;
    }
    EXPECT_GT(failedShipments, 20u);
    EXPECT_GT(evictor.pagesEvicted(), 1000u);
    EXPECT_GT(evictor.silentEvictions(), 100u);
    EXPECT_GT(evictor.dirtyLinesWritten(), 1000u);
    EXPECT_EQ(runtime.reliability().nodesFailed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Replication, DirtyMaskDifferential,
                         ::testing::Values(0, 1));

} // namespace
} // namespace kona
