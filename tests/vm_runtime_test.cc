/**
 * @file
 * Tests for the virtual-memory baseline family: fault accounting
 * (major on first touch, minor on first write), page-granularity
 * eviction with TLB shootdowns, the NoWP variant, personality latency
 * ordering, byte-exact data under cache pressure, and exact LRU
 * victim order for every personality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "common/rng.h"
#include "core/vm_runtime.h"

namespace kona {
namespace {

class VmFixture : public ::testing::Test
{
  protected:
    explicit VmFixture(VmConfig cfg = makeConfig())
        : controller(1 * MiB)
    {
        node = std::make_unique<MemoryNode>(fabric, 20, 128 * MiB);
        controller.registerNode(*node);
        runtime = std::make_unique<VmRuntime>(fabric, controller, 0,
                                              cfg);
    }

    static VmConfig
    makeConfig()
    {
        VmConfig cfg;
        cfg.localCachePages = 64;
        cfg.hierarchy = HierarchyConfig::scaled();
        return cfg;
    }

    Fabric fabric;
    Controller controller;
    std::unique_ptr<MemoryNode> node;
    std::unique_ptr<VmRuntime> runtime;
};

TEST_F(VmFixture, RoundTripSmall)
{
    Addr a = runtime->allocate(500);
    std::vector<std::uint8_t> data(500);
    Rng rng(1);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    runtime->write(a, data.data(), data.size());
    std::vector<std::uint8_t> check(500);
    runtime->read(a, check.data(), check.size());
    EXPECT_EQ(check, data);
}

TEST_F(VmFixture, MajorFaultOnFirstTouchOnly)
{
    Addr a = runtime->allocate(4 * pageSize, pageSize);
    EXPECT_EQ(runtime->stats().majorFaults, 0u);
    std::uint64_t sink = runtime->load<std::uint64_t>(a);
    sink += runtime->load<std::uint64_t>(a + 8);
    (void)sink;
    EXPECT_EQ(runtime->stats().majorFaults, 1u);
    runtime->load<std::uint64_t>(a + pageSize);
    EXPECT_EQ(runtime->stats().majorFaults, 2u);
}

TEST_F(VmFixture, MinorFaultOnFirstWriteOnly)
{
    Addr a = runtime->allocate(pageSize, pageSize);
    runtime->load<std::uint64_t>(a);             // major only
    EXPECT_EQ(runtime->stats().minorFaults, 0u);
    runtime->store<std::uint64_t>(a, 1);          // minor (WP fault)
    EXPECT_EQ(runtime->stats().minorFaults, 1u);
    runtime->store<std::uint64_t>(a + 64, 2);     // already writable
    EXPECT_EQ(runtime->stats().minorFaults, 1u);
}

TEST_F(VmFixture, TwoFaultsPerWrittenPage)
{
    // §6.1: "Kona-VM incurs two page faults for caching a remote page"
    // when the page is written.
    Addr a = runtime->allocate(8 * pageSize, pageSize);
    for (int p = 0; p < 8; ++p)
        runtime->store<std::uint64_t>(a + p * pageSize, p);
    RuntimeStats stats = runtime->stats();
    EXPECT_EQ(stats.majorFaults, 8u);
    EXPECT_EQ(stats.minorFaults, 8u);
}

TEST_F(VmFixture, EvictionTriggersTlbShootdowns)
{
    // 64-page cache; touch 100 pages.
    Addr a = runtime->allocate(100 * pageSize, pageSize);
    for (int p = 0; p < 100; ++p)
        runtime->store<std::uint64_t>(a + p * pageSize, p);
    RuntimeStats stats = runtime->stats();
    EXPECT_GE(stats.pagesEvicted, 36u);
    EXPECT_EQ(stats.tlbShootdowns, stats.pagesEvicted);
    EXPECT_EQ(runtime->residentPages(), 64u);
}

TEST_F(VmFixture, DataSurvivesEviction)
{
    Addr a = runtime->allocate(128 * pageSize, pageSize);
    Rng rng(2);
    std::vector<std::uint64_t> expected(128);
    for (std::size_t p = 0; p < 128; ++p) {
        expected[p] = rng.next();
        runtime->store<std::uint64_t>(a + p * pageSize + 24,
                                      expected[p]);
    }
    for (std::size_t p = 0; p < 128; ++p) {
        EXPECT_EQ(
            runtime->load<std::uint64_t>(a + p * pageSize + 24),
            expected[p])
            << "page " << p;
    }
}

TEST_F(VmFixture, CleanPagesEvictSilently)
{
    Addr a = runtime->allocate(100 * pageSize, pageSize);
    std::uint64_t sink = 0;
    for (int p = 0; p < 100; ++p)
        sink += runtime->load<std::uint64_t>(a + p * pageSize);
    (void)sink;
    RuntimeStats stats = runtime->stats();
    EXPECT_GT(stats.silentEvictions, 0u);
    EXPECT_EQ(stats.evictionBytesOnWire, 0u);
}

TEST_F(VmFixture, EvictionWritesWholePages)
{
    Addr a = runtime->allocate(100 * pageSize, pageSize);
    for (int p = 0; p < 100; ++p)
        runtime->store<std::uint64_t>(a + p * pageSize, p);
    runtime->writebackAll();
    RuntimeStats stats = runtime->stats();
    // Every dirty page moved 4KB even though only 8B changed.
    EXPECT_EQ(stats.evictionBytesOnWire,
              stats.pagesEvicted * pageSize -
                  stats.silentEvictions * pageSize);
}

TEST_F(VmFixture, WritebackAllFlushesEverything)
{
    Addr a = runtime->allocate(16 * pageSize, pageSize);
    for (int p = 0; p < 16; ++p)
        runtime->store<std::uint64_t>(a + p * pageSize, 0x77);
    runtime->writebackAll();
    EXPECT_EQ(runtime->residentPages(), 0u);
    // Remote image is byte exact.
    for (int p = 0; p < 16; ++p) {
        EXPECT_EQ(runtime->load<std::uint64_t>(a + p * pageSize),
                  0x77u);
    }
}

TEST_F(VmFixture, FaultLatencyChargedToApp)
{
    Addr a = runtime->allocate(pageSize, pageSize);
    Tick before = runtime->appClock().now();
    runtime->load<std::uint64_t>(a);
    Tick faultCost = runtime->appClock().now() - before;
    EXPECT_GT(faultCost, 10000u);   // Kona-VM fetch ~10.5us
    before = runtime->appClock().now();
    runtime->load<std::uint64_t>(a + 8);
    EXPECT_LT(runtime->appClock().now() - before, 1000u);
}

TEST(VmVariants, NoWpSkipsMinorFaultsButWritesEverythingBack)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 128 * MiB);
    controller.registerNode(node);

    VmConfig cfg;
    cfg.localCachePages = 32;
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.writeProtectTracking = false;
    VmRuntime runtime(fabric, controller, 0, cfg);
    EXPECT_EQ(runtime.name(), "Kona-VM-NoWP");

    Addr a = runtime.allocate(64 * pageSize, pageSize);
    std::uint64_t sink = 0;
    for (int p = 0; p < 64; ++p)
        sink += runtime.load<std::uint64_t>(a + p * pageSize);
    (void)sink;
    runtime.writebackAll();
    RuntimeStats stats = runtime.stats();
    EXPECT_EQ(stats.minorFaults, 0u);
    // Without tracking, even untouched-by-write pages ship 4KB each.
    EXPECT_EQ(stats.silentEvictions, 0u);
    EXPECT_EQ(stats.evictionBytesOnWire, 64u * pageSize);
}

TEST(VmVariants, PersonalityLatencyOrdering)
{
    auto coldFetchTime = [](VmPersonality personality) {
        Fabric fabric;
        Controller controller(1 * MiB);
        MemoryNode node(fabric, 1, 64 * MiB);
        controller.registerNode(node);
        VmConfig cfg;
        cfg.personality = personality;
        cfg.hierarchy = HierarchyConfig::scaled();
        VmRuntime runtime(fabric, controller, 0, cfg);
        Addr a = runtime.allocate(pageSize, pageSize);
        Tick before = runtime.appClock().now();
        runtime.load<std::uint64_t>(a);
        return runtime.appClock().now() - before;
    };

    Tick konaVm = coldFetchTime(VmPersonality::KonaVm);
    Tick lego = coldFetchTime(VmPersonality::LegoOs);
    Tick infini = coldFetchTime(VmPersonality::Infiniswap);
    // §6.2: Infiniswap ~40us >> LegoOS ~10us ~= Kona-VM.
    EXPECT_GT(infini, 3 * lego);
    EXPECT_NEAR(static_cast<double>(konaVm),
                static_cast<double>(lego),
                0.2 * static_cast<double>(lego));
}

TEST(VmVariants, NamesMatchPersonalities)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 64 * MiB);
    controller.registerNode(node);
    for (auto [personality, name] :
         std::vector<std::pair<VmPersonality, std::string>>{
             {VmPersonality::KonaVm, "Kona-VM"},
             {VmPersonality::LegoOs, "LegoOS"},
             {VmPersonality::Infiniswap, "Infiniswap"}}) {
        VmConfig cfg;
        cfg.personality = personality;
        VmRuntime runtime(fabric, controller, 0, cfg);
        EXPECT_EQ(runtime.name(), name);
    }
}

TEST_F(VmFixture, MultiPageAccessStaysResident)
{
    // An access spanning pages must not evict its own span.
    Addr a = runtime->allocate(80 * pageSize, pageSize);
    // Fill the cache with other pages first.
    for (int p = 16; p < 80; ++p)
        runtime->store<std::uint64_t>(a + p * pageSize, p);
    // A 3-page write at the front.
    std::vector<std::uint8_t> big(3 * pageSize, 0x5a);
    runtime->write(a, big.data(), big.size());
    std::vector<std::uint8_t> check(3 * pageSize);
    runtime->read(a, check.data(), check.size());
    EXPECT_EQ(check, big);
}

TEST_F(VmFixture, SpanLargerThanCacheIsFatal)
{
    VmConfig cfg = makeConfig();
    cfg.localCachePages = 4;
    VmRuntime tiny(fabric, controller, 1, cfg);
    Addr b = tiny.allocate(8 * pageSize, pageSize);
    std::vector<std::uint8_t> ok(4 * pageSize, 1);
    EXPECT_NO_THROW(tiny.write(b, ok.data(), ok.size()));
    std::vector<std::uint8_t> tooBig(5 * pageSize, 1);
    EXPECT_THROW(tiny.write(b, tooBig.data(), tooBig.size()),
                 FatalError);
}

/** Single-page accesses of every personality must evict in exact LRU
 *  order: after each access the present pages are a reference LRU's
 *  resident set. */
class VmLruOrder : public ::testing::TestWithParam<VmPersonality>
{
};

TEST_P(VmLruOrder, PresentPagesMatchReferenceLru)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 64 * MiB);
    controller.registerNode(node);
    VmConfig cfg;
    cfg.personality = GetParam();
    cfg.localCachePages = 16;
    cfg.hierarchy = HierarchyConfig::scaled();
    VmRuntime runtime(fabric, controller, 0, cfg);

    constexpr Addr pages = 48;
    const Addr firstVpn =
        pageNumber(runtime.allocate(pages * pageSize, pageSize));
    std::list<Addr> ref;   // front = most recently used
    Rng rng(0x1e0 + static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 3000; ++i) {
        // Half the accesses hit an 8-page hot set, so victims come
        // from every LRU depth, not only from a uniform sweep.
        Addr vpn = firstVpn + (rng.below(2) == 0 ? rng.below(8)
                                                 : rng.below(pages));
        Addr addr = vpn * pageSize + rng.below(pageSize / 8) * 8;
        if (rng.below(4) == 0)
            runtime.store<std::uint64_t>(
                addr, static_cast<std::uint64_t>(i));
        else
            (void)runtime.load<std::uint64_t>(addr);

        auto it = std::find(ref.begin(), ref.end(), vpn);
        if (it != ref.end())
            ref.erase(it);
        else if (ref.size() == cfg.localCachePages)
            ref.pop_back();
        ref.push_front(vpn);

        ASSERT_EQ(runtime.residentPages(), ref.size()) << "access " << i;
        for (Addr p = firstVpn; p < firstVpn + pages; ++p) {
            const PageTableEntry *pte = runtime.pageTable().entry(p);
            bool present = pte != nullptr && pte->present;
            bool expected =
                std::find(ref.begin(), ref.end(), p) != ref.end();
            ASSERT_EQ(present, expected)
                << "page " << p - firstVpn << " after access " << i;
        }
    }
    EXPECT_GT(runtime.stats().pagesEvicted, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Personalities, VmLruOrder,
    ::testing::Values(VmPersonality::KonaVm, VmPersonality::LegoOs,
                      VmPersonality::Infiniswap),
    [](const ::testing::TestParamInfo<VmPersonality> &info) {
        switch (info.param) {
          case VmPersonality::KonaVm: return std::string("KonaVm");
          case VmPersonality::LegoOs: return std::string("LegoOs");
          case VmPersonality::Infiniswap: break;
        }
        return std::string("Infiniswap");
    });

} // namespace
} // namespace kona
