/**
 * @file
 * Kona's write-and-evict steady state allocates nothing: once FMem,
 * the eviction engine's batch and shipment slots, every log buffer
 * and every memory node's receive buffer have reached their working
 * size, accesses that demand-evict, pump background batches, ship
 * dirty lines to their homes and drop clean pages silently make no
 * heap allocation. This binary counts every allocation through the
 * bench allocation hook, so it holds this one test only.
 */

#include <gtest/gtest.h>

#include <array>

#include "../bench/alloc_hook.h"
#include "common/rng.h"
#include "core/kona_runtime.h"

namespace kona {
namespace {

void
expectSteadyStateAllocatesNothing(std::size_t depth,
                                  std::size_t replication)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node1(fabric, 1, 64 * MiB);
    MemoryNode node2(fabric, 2, 64 * MiB);
    MemoryNode node3(fabric, 3, 64 * MiB);
    controller.registerNode(node1);
    controller.registerNode(node2);
    controller.registerNode(node3);
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 64 * MiB;
    cfg.fpga.fmemSize = 1 * MiB;
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.evict.pipelineDepth = depth;
    cfg.replicationFactor = replication;
    KonaRuntime runtime(fabric, controller, 0, cfg);

    // A working set four times FMem, over four slabs.
    constexpr std::size_t span = 4 * MiB;
    const Addr base = runtime.allocate(span, pageSize);
    std::array<std::uint8_t, 100> buf{};
    Rng rng(0x5eed + depth * 2 + replication);
    auto access = [&](int i) {
        Addr addr = base + rng.below(span - buf.size());
        if (rng.below(4) == 0) {
            buf[0] = static_cast<std::uint8_t>(i);
            runtime.write(addr, buf.data(), buf.size());
        } else {
            runtime.read(addr, buf.data(), buf.size());
        }
    };

    // Warm-up: every page is fetched, dirtied and shipped many times.
    for (int i = 0; i < 100000; ++i)
        access(i);

    const EvictionHandler &evictor = runtime.evictionHandler();
    const std::uint64_t pagesBefore = evictor.pagesEvicted();
    const std::uint64_t silentBefore = evictor.silentEvictions();
    const std::uint64_t linesBefore = evictor.dirtyLinesWritten();
    const std::uint64_t demandEvictNsBefore =
        runtime.missAttribution().componentNs(MissComponent::Evict);
    const Tick pumpBefore = runtime.backgroundClock().now();

    const std::uint64_t allocsBefore = bench::allocCount();
    for (int i = 0; i < 50000; ++i)
        access(i);
    const std::uint64_t allocs = bench::allocCount() - allocsBefore;

    EXPECT_EQ(allocs, 0u);
    // The measured accesses exercised every eviction path.
    EXPECT_GT(runtime.missAttribution().componentNs(MissComponent::Evict),
              demandEvictNsBefore);
    EXPECT_GT(runtime.backgroundClock().now(), pumpBefore);
    EXPECT_GT(evictor.dirtyLinesWritten(), linesBefore);
    EXPECT_GT(evictor.silentEvictions(), silentBefore);
    EXPECT_GT(evictor.pagesEvicted() - pagesBefore,
              evictor.silentEvictions() - silentBefore);
}

TEST(KonaSteadyState, WriteAndEvictAllocatesNothing)
{
    for (std::size_t depth : {1, 4}) {
        for (std::size_t replication : {0, 1}) {
            SCOPED_TRACE(::testing::Message()
                         << "pipelineDepth " << depth
                         << ", replicationFactor " << replication);
            expectSteadyStateAllocatesNothing(depth, replication);
        }
    }
}

} // namespace
} // namespace kona
