/**
 * @file
 * A single-level simulated page table with the protection machinery the
 * virtual-memory baselines depend on: present bits (fetch faults),
 * write-protection (dirty tracking faults), and dirty/accessed bits.
 *
 * Kona itself keeps pages permanently present and writable in VFMem;
 * the VM baselines flip these bits constantly — that asymmetry is the
 * core of the paper.
 *
 * Entries live in one dense array indexed by page offset from the
 * lowest mapped page, so a lookup is an index, not a hash. Storage
 * follows the span between the lowest and highest page ever mapped;
 * both runtimes map one contiguous window, slab by slab.
 */

#ifndef KONA_MEM_PAGE_TABLE_H
#define KONA_MEM_PAGE_TABLE_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace kona {

/** One page table entry. */
struct PageTableEntry
{
    Addr physPage = invalidAddr; ///< physical page number
    bool present = false;
    bool writable = true;
    bool dirty = false;
    bool accessed = false;
};

/** Outcome of a translation attempt. */
enum class TranslationResult : std::uint8_t
{
    Ok,             ///< translation succeeded
    NotPresent,     ///< page not mapped or present bit clear (major fault)
    WriteProtected, ///< write hit a read-only page (minor fault)
};

/** Virtual page number -> PageTableEntry map with fault semantics. */
class PageTable
{
  public:
    PageTable() = default;

    /**
     * Map virtual page @p vpn to physical page @p ppn.
     * @param writable Initial write permission.
     * Mapping a page outside the current span grows the storage and
     * invalidates every pointer entry() returned before.
     */
    void map(Addr vpn, Addr ppn, bool writable = true);

    /** Remove the mapping for @p vpn entirely. */
    void unmap(Addr vpn);

    /** Clear the present bit but keep the entry (eviction). */
    void markNotPresent(Addr vpn);

    /** Set the present bit (fetch completed). */
    void markPresent(Addr vpn);

    /** Clear write permission on @p vpn (dirty-tracking re-arm). */
    void writeProtect(Addr vpn);

    /** Grant write permission and mark dirty (minor fault service). */
    void enableWrite(Addr vpn);

    /** Clear the dirty bit (after writeback). */
    void clearDirty(Addr vpn);

    /**
     * Translate an access to virtual page @p vpn.
     * Sets accessed/dirty bits on success.
     */
    TranslationResult translate(Addr vpn, AccessType type);

    /** Entry lookup without side effects; valid until the next map(). */
    const PageTableEntry *entry(Addr vpn) const
    {
        const Slot *slot = find(vpn);
        return slot == nullptr ? nullptr : &slot->pte;
    }

    bool mapped(Addr vpn) const { return find(vpn) != nullptr; }
    std::size_t size() const { return size_; }

    /** Number of PTE modifications performed (cost accounting). */
    std::uint64_t pteUpdates() const { return pteUpdates_.value(); }

  private:
    struct Slot
    {
        PageTableEntry pte;
        bool mapped = false;
    };

    /** The mapped slot of @p vpn, or nullptr. */
    const Slot *
    find(Addr vpn) const
    {
        // Pages below base_ wrap to huge offsets and fail the bound.
        Addr offset = vpn - base_;
        if (offset >= slots_.size() || !slots_[offset].mapped)
            return nullptr;
        return &slots_[offset];
    }

    PageTableEntry &entryRef(Addr vpn);

    /** Page number of slots_[0]. */
    Addr base_ = 0;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    Counter pteUpdates_;
};

} // namespace kona

#endif // KONA_MEM_PAGE_TABLE_H
