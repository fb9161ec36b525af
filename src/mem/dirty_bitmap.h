/**
 * @file
 * Dirty-line masks: one bit per 64-byte line of a 4 KiB page, 64 lines
 * per page. The coherent FPGA keeps one such mask per FMem frame
 * (CoherentFpga::dirtyMask) and the Eviction Handler turns it into the
 * runs of a CL log.
 */

#ifndef KONA_MEM_DIRTY_BITMAP_H
#define KONA_MEM_DIRTY_BITMAP_H

#include <bit>
#include <cstdint>

namespace kona {

/**
 * Count the contiguous dirty segments in a 64-bit line mask, the metric
 * behind Fig 3 and the CL-log aggregation efficiency.
 */
inline unsigned
segmentCount(std::uint64_t mask)
{
    // A segment starts at every set bit whose lower neighbour is clear.
    return static_cast<unsigned>(std::popcount(mask & ~(mask << 1)));
}

} // namespace kona

#endif // KONA_MEM_DIRTY_BITMAP_H
