/**
 * @file
 * BackingStore: a flat, sparsely populated simulated DRAM.
 *
 * A table with one slot per page of capacity points at that page's
 * bytes; pages are heap-allocated on first write, so a store costs
 * 8 bytes per page of capacity plus the pages actually used. This
 * models the FMem frames on the FPGA, the VM baselines' local frame
 * cache and the DRAM of memory nodes.
 */

#ifndef KONA_MEM_BACKING_STORE_H
#define KONA_MEM_BACKING_STORE_H

#include <memory>
#include <vector>

#include "common/types.h"
#include "mem/memory_interface.h"

namespace kona {

/** Sparse page-granularity byte store. Zero-filled on first touch. */
class BackingStore : public MemoryInterface
{
  public:
    /** @param capacity Maximum legal address + 1 (checked on access). */
    explicit BackingStore(std::size_t capacity);

    void read(Addr addr, void *buf, std::size_t size) override;
    void write(Addr addr, const void *buf, std::size_t size) override;

    std::size_t capacity() const { return capacity_; }

    /** Number of pages materialized so far (resident footprint). */
    std::size_t residentPages() const { return materialized_; }

    /**
     * Direct pointer to the byte backing @p addr, materializing the
     * page. Valid only up to the end of that page; used by zero-copy
     * paths (RDMA MRs, snapshot diffs).
     */
    std::uint8_t *pagePointer(Addr addr);

    /** Whether the page containing @p addr has been materialized. */
    bool pageResident(Addr addr) const
    {
        Addr pn = pageNumber(addr);
        return pn < pages_.size() && pages_[pn] != nullptr;
    }

  private:
    std::uint8_t *pageFor(Addr addr);

    std::size_t capacity_;
    /** Page number -> its bytes; null until the page is first written. */
    std::vector<std::unique_ptr<std::uint8_t[]>> pages_;
    std::size_t materialized_ = 0;
};

} // namespace kona

#endif // KONA_MEM_BACKING_STORE_H
