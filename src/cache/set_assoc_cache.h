/**
 * @file
 * SetAssocCache: a write-back, write-allocate, LRU set-associative
 * cache model with configurable block size.
 *
 * It plays two roles in the reproduction:
 *  - levels of the CPU cache hierarchy (64B blocks), whose misses and
 *    writebacks are the coherence events the FPGA observes;
 *  - the FMem page cache on the FPGA (4KB blocks, 4-way), and the
 *    KCacheSim DRAM-cache level swept over block sizes in Fig 8d.
 *
 * Storage is a single flat array of numSets * associativity way
 * slots. Each set owns a contiguous slice; its valid ways occupy a
 * prefix of the slice in LRU order (slot 0 = MRU). With the small
 * associativities we model (<= 16), a shift-down on hit beats the
 * pointer chasing of a per-set std::list, and no access ever touches
 * the heap. See DESIGN.md "Simulator performance".
 */

#ifndef KONA_CACHE_SET_ASSOC_CACHE_H
#define KONA_CACHE_SET_ASSOC_CACHE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "telemetry/metric_registry.h"

namespace kona {

/** Geometry of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * KiB;
    std::size_t associativity = 8;
    std::size_t blockSize = cacheLineSize;
};

/**
 * A block leaving the cache. Access paths produce at most one victim
 * per operation (a hit evicts nothing; a fill replaces exactly one
 * way), so the single-eviction out-param below is exhaustive — see
 * DESIGN.md "Simulator performance" for why this is an invariant.
 */
struct CacheEviction
{
    Addr blockAddr = 0;   ///< block-aligned address
    bool dirty = false;
    bool valid = false;   ///< whether a victim was produced at all
};

/** Result of one access. */
enum class CacheOutcome : std::uint8_t { Hit, Miss };

/** Write-back write-allocate LRU set-associative cache. */
class SetAssocCache
{
  public:
    /** @param scope Telemetry scope this cache registers "hits",
     *         "misses" and "writebacks" under (private when omitted). */
    explicit SetAssocCache(const CacheConfig &config,
                           MetricScope scope = {});

    /**
     * Access the block containing @p addr.
     * On a miss the block is allocated; @p eviction reports the victim
     * (eviction.valid == false when nothing was displaced).
     */
    CacheOutcome access(Addr addr, AccessType type,
                        CacheEviction &eviction);

    /**
     * Insert a block without an access (fill from a writeback arriving
     * from an inner level); marks it dirty. @p eviction as access().
     */
    void fillDirty(Addr addr, CacheEviction &eviction);

    /** Whether the block containing @p addr is cached (no side effects). */
    bool contains(Addr addr) const;

    /**
     * Remove the block containing @p addr (snoop / back-invalidate).
     * @return The dirty flag if the block was present.
     */
    std::optional<bool> invalidateBlock(Addr addr);

    /** Evict everything; victims go to @p evictions (cold path). */
    void flushAll(std::vector<CacheEviction> &evictions);

    /**
     * Call @p fn(blockAddr, dirty) for every cached block, set by set
     * and MRU first within a set, without LRU or counter side effects.
     */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (std::size_t s = 0; s < numSets_; ++s) {
            const Way *set = setBase(s);
            for (std::size_t i = 0; i < used_[s]; ++i)
                fn(set[i].tag << blockShift_, set[i].dirty);
        }
    }

    const CacheConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::uint64_t accesses() const { return hits() + misses(); }
    double
    missRate() const
    {
        std::uint64_t a = accesses();
        return a == 0 ? 0.0
                      : static_cast<double>(misses()) /
                            static_cast<double>(a);
    }
    std::size_t numSets() const { return numSets_; }

    /** Valid prefixes sized <= associativity; tags unique per set. */
    bool checkInvariants() const;

  private:
    struct Way
    {
        Addr tag;       ///< block number (addr >> blockShift_)
        bool dirty;
    };

    /** A mask when the set count is a power of two, else a division
     *  (Fig 8's DRAM-cache sweep has 99- and 134-set geometries). */
    std::size_t setIndex(Addr blockNum) const
    {
        return static_cast<std::size_t>(
            pow2Sets_ ? blockNum & (numSets_ - 1) : blockNum % numSets_);
    }

    /** Start of set @p s's slice in ways_. */
    Way *setBase(std::size_t s) { return ways_.data() + s * config_.associativity; }
    const Way *setBase(std::size_t s) const
    {
        return ways_.data() + s * config_.associativity;
    }

    CacheConfig config_;
    MetricScope scope_;
    std::size_t numSets_;
    unsigned blockShift_;   ///< log2(blockSize)
    bool pow2Sets_;
    /** numSets * associativity slots; set s owns
     *  [s*assoc, s*assoc + used_[s]) in LRU order, MRU first. */
    std::vector<Way> ways_;
    std::vector<std::uint32_t> used_;
    Counter &hits_;
    Counter &misses_;
    Counter &writebacks_;
};

} // namespace kona

#endif // KONA_CACHE_SET_ASSOC_CACHE_H
