/**
 * @file
 * Example: a tour of Kona's dirty-data tracking machinery.
 *
 * Demonstrates the track-local-data primitive directly: the CPU
 * hierarchy's writebacks populate the FPGA's per-page dirty-line
 * bitmaps; snooping completes the picture at eviction time; the
 * eviction handler converts the masks into a CL log whose wire size
 * is proportional to the dirty bytes, not the page count.
 *
 * Build & run:  ./build/examples/dirty_tracking_tour
 */

#include <cstdio>

#include "core/kona_runtime.h"
#include "mem/dirty_bitmap.h"

int
main()
{
    using namespace kona;
    setQuietLogging(true);

    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 128 * MiB);
    controller.registerNode(node);

    KonaConfig cfg;
    cfg.fpga.fmemSize = 8 * MiB;
    cfg.hierarchy = HierarchyConfig::scaled();
    KonaRuntime kona(fabric, controller, 0, cfg);

    Addr region = kona.allocate(8 * pageSize, pageSize);

    // Dirty a recognizable pattern: page 0 gets lines {0, 5, 6, 7},
    // page 1 gets every even line, page 2 is read but never written.
    for (unsigned line : {0u, 5u, 6u, 7u})
        kona.store<std::uint64_t>(region + line * cacheLineSize, line);
    for (unsigned line = 0; line < 64; line += 2) {
        kona.store<std::uint64_t>(
            region + pageSize + line * cacheLineSize, line);
    }
    (void)kona.load<std::uint64_t>(region + 2 * pageSize);

    // Peek at the FPGA's dirty bitmaps (the hardware primitive).
    Addr vpn0 = pageNumber(region);
    std::printf("dirty masks as tracked by the coherent FPGA:\n");
    for (int p = 0; p < 3; ++p) {
        std::uint64_t mask = kona.fpga().dirtyMask(vpn0 + p);
        std::printf("  page %d: %2u dirty lines, %2u contiguous "
                    "segment(s)  mask=0x%016llx\n",
                    p, static_cast<unsigned>(__builtin_popcountll(mask)),
                    segmentCount(mask),
                    static_cast<unsigned long long>(mask));
    }

    // Evict and compare wire traffic against page granularity.
    kona.writebackAll();
    RuntimeStats stats = kona.stats();
    std::uint64_t pageBytes = stats.pagesEvicted * pageSize;
    std::printf("\neviction shipped %llu dirty lines in %llu wire "
                "bytes;\n",
                static_cast<unsigned long long>(
                    stats.dirtyLinesWritten),
                static_cast<unsigned long long>(
                    stats.evictionBytesOnWire));
    std::printf("a page-granularity runtime would have shipped %llu "
                "bytes (%.1fX more).\n",
                static_cast<unsigned long long>(pageBytes),
                static_cast<double>(pageBytes) /
                    static_cast<double>(stats.evictionBytesOnWire));

    // The memory node now holds the exact bytes.
    RemoteLocation loc = kona.fpga().translation().translate(region);
    std::uint64_t check = 0;
    fabric.nodeStore(loc.node).read(loc.addr + 5 * cacheLineSize,
                                    &check, sizeof(check));
    std::printf("\nspot check on the memory node: page0/line5 = %llu "
                "(expected 5)\n",
                static_cast<unsigned long long>(check));
    return check == 5 ? 0 : 1;
}
