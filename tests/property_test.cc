/**
 * @file
 * Property-style parameterized sweeps across the whole stack:
 * workload determinism, KvStore equivalence against a reference map,
 * Zipf invariants, TLB capacity behaviour, linked-chain RDMA
 * integrity, and snapshot-diff equivalence with the FPGA's per-frame
 * dirty-line masks.
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "common/rng.h"
#include "core/kona_runtime.h"
#include "mem/backing_store.h"
#include "mem/page_snapshot.h"
#include "mem/tlb.h"
#include "net/queue_pair.h"
#include "workloads/kv_store.h"
#include "workloads/registry.h"

namespace kona {
namespace {

/** Plain-memory environment for workload property tests. */
struct Env
{
    explicit Env(std::size_t size = 256 * MiB)
        : store(size), heap(pageSize, size - pageSize),
          context(
              store,
              [this](std::size_t s, std::size_t a) {
                  auto addr = heap.allocate(s, a);
                  KONA_ASSERT(addr.has_value(), "heap exhausted");
                  return *addr;
              },
              [this](Addr a) { heap.deallocate(a); })
    {}

    BackingStore store;
    RegionAllocator heap;
    WorkloadContext context;
};

/** FNV-1a over a slice of the simulated heap. */
std::uint64_t
fingerprint(BackingStore &store, std::size_t bytes)
{
    std::vector<std::uint8_t> buf(bytes);
    store.read(pageSize, buf.data(), bytes);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint8_t b : buf) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
}

class WorkloadDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDeterminism, SameSeedSameMemoryImage)
{
    auto runOnce = [&]() {
        Env env;
        WorkloadScale scale;
        scale.factor = 0.05;
        auto workload = makeWorkload(GetParam(), env.context, scale);
        workload->setup();
        workload->run(std::min<std::uint64_t>(
            defaultWindowOps(GetParam()) * 2, 4000));
        return fingerprint(env.store, 256 * KiB);
    };
    EXPECT_EQ(runOnce(), runOnce());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDeterminism,
    ::testing::ValuesIn(table2WorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

class KvStoreEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(KvStoreEquivalence, MatchesReferenceMap)
{
    Env env;
    KvStore store(env.context, 4096, true);
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> ref;
    Rng rng(GetParam());
    std::vector<std::uint8_t> value;

    for (int op = 0; op < 4000; ++op) {
        std::uint64_t key = rng.below(1200);
        double dice = rng.uniform();
        if (dice < 0.5) {
            std::size_t len = 1 + rng.below(150);
            value.resize(len);
            for (auto &b : value)
                b = static_cast<std::uint8_t>(rng.next());
            store.set(key, value.data(),
                      static_cast<std::uint32_t>(len));
            ref[key] = value;
        } else if (dice < 0.8) {
            bool inStore = store.get(key, value);
            auto it = ref.find(key);
            ASSERT_EQ(inStore, it != ref.end()) << "op " << op;
            if (inStore)
                ASSERT_EQ(value, it->second) << "op " << op;
        } else {
            bool erased = store.erase(key);
            ASSERT_EQ(erased, ref.erase(key) == 1) << "op " << op;
        }
        ASSERT_EQ(store.size(), ref.size());
    }

    // Final sweep.
    for (const auto &[key, expected] : ref) {
        ASSERT_TRUE(store.get(key, value));
        ASSERT_EQ(value, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreEquivalence,
                         ::testing::Values(1, 2, 3, 4));

class ZipfProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ZipfProperty, BoundsAndMonotoneSkew)
{
    Rng rng(GetParam());
    for (double theta : {0.0, 0.3, 0.6, 0.9}) {
        Rng local(GetParam() * 100 + static_cast<int>(theta * 10));
        ZipfGenerator zipf(5000, theta, local);
        std::uint64_t hotCount = 0;
        for (int i = 0; i < 5000; ++i) {
            std::uint64_t v = zipf.next();
            ASSERT_LT(v, 5000u);
            if (v < 50)
                ++hotCount;
        }
        // Skew grows with theta: at 0.9 the hottest 1% draws a large
        // share; at 0 it draws ~1%.
        if (theta == 0.0)
            EXPECT_LT(hotCount, 200u);
        if (theta == 0.9)
            EXPECT_GT(hotCount, 800u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZipfProperty,
                         ::testing::Values(7, 8, 9));

class TlbCapacitySweep
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TlbCapacitySweep, WorkingSetFitBehaviour)
{
    std::size_t capacity = GetParam();
    Tlb tlb(capacity);
    // First pass over exactly `capacity` pages: all miss, all fit.
    for (Addr vpn = 0; vpn < capacity; ++vpn) {
        EXPECT_FALSE(tlb.lookup(vpn));
        tlb.insert(vpn);
    }
    // Second pass: all hit.
    for (Addr vpn = 0; vpn < capacity; ++vpn)
        EXPECT_TRUE(tlb.lookup(vpn));
    // A working set of capacity+1 pages accessed round-robin always
    // misses under LRU.
    Tlb thrash(capacity);
    for (int round = 0; round < 3; ++round) {
        for (Addr vpn = 0; vpn <= capacity; ++vpn) {
            EXPECT_FALSE(thrash.lookup(vpn));
            thrash.insert(vpn);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbCapacitySweep,
                         ::testing::Values(1, 2, 16, 64, 1536));

class LinkedChainIntegrity
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LinkedChainIntegrity, AllPayloadsLand)
{
    std::size_t chainLen = GetParam();
    Fabric fabric;
    BackingStore local(1 * MiB), remote(8 * MiB);
    fabric.attachNode(0, &local);
    fabric.attachNode(1, &remote);
    MemoryRegion mr = fabric.registerRegion(1, 0, 8 * MiB);
    CompletionQueue cq;
    QueuePair qp(fabric, 0, 1, cq);
    Poller poller(fabric.latency());
    SimClock clock;

    Rng rng(chainLen);
    std::vector<std::vector<std::uint8_t>> payloads(chainLen);
    std::vector<WorkRequest> chain(chainLen);
    for (std::size_t i = 0; i < chainLen; ++i) {
        payloads[i].resize(1 + rng.below(500));
        for (auto &b : payloads[i])
            b = static_cast<std::uint8_t>(rng.next());
        chain[i].wrId = i + 1;
        chain[i].opcode = RdmaOpcode::Write;
        chain[i].localBuf = payloads[i].data();
        chain[i].remoteKey = mr.key;
        chain[i].remoteAddr = i * 1024;
        chain[i].length = payloads[i].size();
        chain[i].signaled = i + 1 == chainLen;
    }
    ASSERT_TRUE(qp.postLinked(chain, clock));
    poller.waitOne(cq, clock);

    for (std::size_t i = 0; i < chainLen; ++i) {
        std::vector<std::uint8_t> check(payloads[i].size());
        remote.read(i * 1024, check.data(), check.size());
        ASSERT_EQ(check, payloads[i]) << "entry " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, LinkedChainIntegrity,
                         ::testing::Values(1, 2, 7, 32, 128));

/** The FPGA's per-frame dirty masks (coherence view) and a snapshot
 *  diff of FMem (content view) must agree whenever every write
 *  changes bytes. */
class TrackingEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(TrackingEquivalence, DirtyMasksMatchSnapshotDiff)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 16 * MiB);
    controller.registerNode(node);
    KonaConfig cfg;
    cfg.fpga.fmemSize = 1 * MiB;   // 64 sets: 32 pages never collide
    cfg.hierarchy = HierarchyConfig::scaled();
    KonaRuntime runtime(fabric, controller, 0, cfg);

    constexpr int pages = 32;
    const Addr base = runtime.allocate(pages * pageSize, pageSize);
    const Addr firstVpn = pageNumber(base);
    PageSnapshotStore snaps;
    for (Addr pn = 0; pn < pages; ++pn)
        snaps.capture(firstVpn + pn, runtime);

    Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        Addr pn = rng.below(pages);
        std::size_t offset = rng.below(pageSize - 8);
        // All eight bytes nonzero, so every touched line's content
        // provably differs from the all-zero snapshot.
        std::uint64_t stamp = 0x0101010101010101ULL *
                              (static_cast<std::uint64_t>(i % 255) +
                               1);
        runtime.write(base + pn * pageSize + offset, &stamp,
                      sizeof(stamp));
    }

    for (Addr vpn = firstVpn; vpn < firstVpn + pages; ++vpn) {
        ASSERT_TRUE(runtime.fpga().pageResident(vpn));
        std::uint64_t diffMask = snaps.diffLines(vpn, runtime);
        std::uint64_t trackMask = runtime.fpga().dirtyMask(vpn);
        // Every content change was tracked...
        EXPECT_EQ(diffMask & ~trackMask, 0u) << "page " << vpn;
        // ...and tracking at most adds lines whose write re-wrote
        // identical bytes (impossible here), so the masks are equal.
        EXPECT_EQ(diffMask, trackMask) << "page " << vpn;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackingEquivalence,
                         ::testing::Values(21, 22, 23, 24));

} // namespace
} // namespace kona
