/**
 * @file
 * A TLB model. The virtual-memory baselines pay for it dearly: every
 * write-protection change and every eviction invalidates entries and,
 * on multi-core runs, triggers shootdown IPIs whose cost the runtimes
 * charge via LatencyConfig::tlbShootdownNs. Kona never changes page
 * permissions after setup, so its TLB entries are never shot down.
 *
 * Storage is fixed at construction: capacity slots linked by prev/next
 * indices in exact LRU order, plus an open-addressing vpn -> slot index
 * (linear probing, backward-shift deletion) at most half full. Nothing
 * allocates after the constructor.
 */

#ifndef KONA_MEM_TLB_H
#define KONA_MEM_TLB_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace kona {

/** Fully associative LRU TLB over virtual page numbers. */
class Tlb
{
  public:
    /** @param entries Capacity in translations (e.g. 1536 for L2 STLB). */
    explicit Tlb(std::size_t entries = 1536);

    /** Look up @p vpn; true on hit. Updates recency and counters. */
    bool lookup(Addr vpn);

    /** Install a translation for @p vpn, evicting LRU if full. */
    void insert(Addr vpn);

    /** Invalidate one page (invlpg). Counts an invalidation. */
    void invalidatePage(Addr vpn);

    /** Invalidate everything (full flush / context switch). */
    void invalidateAll();

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t invalidations() const { return invalidations_.value(); }
    std::uint64_t flushes() const { return flushes_.value(); }
    std::size_t occupancy() const { return used_; }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** One translation slot, linked into the LRU list or free list. */
    struct Slot
    {
        Addr vpn = 0;
        std::uint32_t prev = none; ///< toward MRU
        std::uint32_t next = none; ///< toward LRU (or next free slot)
    };

    /** One index bucket: a resident vpn and its slot. */
    struct Bucket
    {
        Addr vpn = 0;
        std::uint32_t slot = none;   ///< none = empty bucket
    };

    std::size_t home(Addr vpn) const
    {
        return static_cast<std::size_t>(
            (vpn * 0x9e3779b97f4a7c15ULL) >> hashShift_);
    }

    /** Empty the index and put every slot on the free list. */
    void clear();
    /** Bucket holding @p vpn, or none. */
    std::uint32_t findBucket(Addr vpn) const;
    /** Empty bucket @p b and shift later members of its run back. */
    void eraseBucket(std::size_t b);
    void unlink(std::uint32_t s);
    void pushFront(std::uint32_t s);
    void touch(std::uint32_t s);

    /** One slot per entry of capacity. */
    std::vector<Slot> slots_;
    std::vector<Bucket> index_;
    std::size_t mask_;
    unsigned hashShift_;
    std::uint32_t head_ = none;    ///< most recently used
    std::uint32_t tail_ = none;    ///< least recently used
    std::uint32_t freeHead_ = none;
    std::size_t used_ = 0;
    Counter hits_;
    Counter misses_;
    Counter invalidations_;
    Counter flushes_;
};

} // namespace kona

#endif // KONA_MEM_TLB_H
