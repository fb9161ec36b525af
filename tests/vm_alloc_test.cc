/**
 * @file
 * The VM baselines' steady state allocates nothing: once every page of
 * the working set has been faulted in and written back once, accesses
 * that major- and minor-fault, write back and shoot down TLB entries
 * make no heap allocation. This binary counts every allocation through
 * the bench allocation hook, so it holds this one test only.
 */

#include <gtest/gtest.h>

#include <array>

#include "../bench/alloc_hook.h"
#include "common/rng.h"
#include "core/vm_runtime.h"

namespace kona {
namespace {

TEST(VmSteadyState, FaultsEvictionsAndShootdownsAllocateNothing)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 64 * MiB);
    controller.registerNode(node);
    VmConfig cfg;
    cfg.personality = VmPersonality::KonaVm;
    cfg.localCachePages = 256;
    cfg.hierarchy = HierarchyConfig::scaled();
    VmRuntime runtime(fabric, controller, 0, cfg);

    // A working set four times the local cache.
    const Addr pages = 4 * cfg.localCachePages;
    const Addr base = runtime.allocate(pages * pageSize, pageSize);

    // Warm-up: write every page, then read every page. Each page is
    // written back once, so the memory node holds all of them, and
    // every frame and queue has reached its steady size.
    for (Addr p = 0; p < pages; ++p)
        runtime.store<std::uint64_t>(base + p * pageSize, p);
    for (Addr p = 0; p < pages; ++p)
        (void)runtime.load<std::uint64_t>(base + p * pageSize);

    const RuntimeStats before = runtime.stats();
    std::array<std::uint8_t, 100> buf{};
    Rng rng(0x5eed);
    const std::uint64_t allocsBefore = bench::allocCount();
    for (int i = 0; i < 50000; ++i) {
        Addr addr = base + rng.below(pages * pageSize - buf.size());
        if (rng.below(4) == 0) {
            buf[0] = static_cast<std::uint8_t>(i);
            runtime.write(addr, buf.data(), buf.size());
        } else {
            runtime.read(addr, buf.data(), buf.size());
        }
    }
    const std::uint64_t allocs = bench::allocCount() - allocsBefore;
    const RuntimeStats after = runtime.stats();

    EXPECT_EQ(allocs, 0u);
    // The measured accesses exercised every VM path.
    EXPECT_GT(after.majorFaults, before.majorFaults);
    EXPECT_GT(after.minorFaults, before.minorFaults);
    EXPECT_GT(after.tlbShootdowns, before.tlbShootdowns);
    EXPECT_GT(after.evictionBytesOnWire, before.evictionBytesOnWire);
}

} // namespace
} // namespace kona
