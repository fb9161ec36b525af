/**
 * @file
 * Unit tests for src/prefetch (predictors, credit bucket, staging
 * queue) and the CoherentFpga prefetch engine built on them: credit
 * enforcement, useful/wasted attribution against a hand-computed
 * oracle, silent node-down handling, the deprecated-bool alias, and
 * runtime-level demand-fetch reduction.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/kona_runtime.h"
#include "fpga/coherent_fpga.h"
#include "net/fault_injector.h"
#include "prefetch/adaptive_prefetcher.h"
#include "prefetch/correlation_prefetcher.h"
#include "prefetch/prefetch_queue.h"
#include "prefetch/prefetcher.h"
#include "prefetch/stride_prefetcher.h"
#include "rack/controller.h"

namespace kona {
namespace {

// ---------------------------------------------------------------- spec

TEST(PrefetchSpec, OffAndAliasesReturnNull)
{
    EXPECT_EQ(makePrefetcher("off"), nullptr);
    EXPECT_EQ(makePrefetcher("none"), nullptr);
    EXPECT_EQ(makePrefetcher(""), nullptr);
}

TEST(PrefetchSpec, DefaultDepthsAndNames)
{
    EXPECT_EQ(makePrefetcher("next")->name(), "next:1");
    EXPECT_EQ(makePrefetcher("next:7")->name(), "next:7");
    EXPECT_EQ(makePrefetcher("stride")->name(), "stride:4");
    EXPECT_EQ(makePrefetcher("corr")->name(), "corr:2");
    EXPECT_EQ(makePrefetcher("correlation:3")->name(), "corr:3");
    EXPECT_EQ(makePrefetcher("adaptive")->name(), "adaptive:4");
}

TEST(PrefetchSpec, BadSpecsAreFatal)
{
    EXPECT_THROW(makePrefetcher("bogus"), FatalError);
    EXPECT_THROW(makePrefetcher("next:0"), FatalError);
    EXPECT_THROW(makePrefetcher("next:abc"), FatalError);
    EXPECT_THROW(makePrefetcher("off:2"), FatalError);
}

TEST(PrefetchSpec, KnownPolicyValidation)
{
    EXPECT_TRUE(knownPrefetchPolicy("off"));
    EXPECT_TRUE(knownPrefetchPolicy("stride:8"));
    EXPECT_TRUE(knownPrefetchPolicy("adaptive"));
    EXPECT_FALSE(knownPrefetchPolicy("bogus"));
    EXPECT_FALSE(knownPrefetchPolicy("next:0"));
    EXPECT_FALSE(knownPrefetchPolicy("next:x"));
    EXPECT_FALSE(prefetchPolicyNames().empty());
}

// ---------------------------------------------------------- predictors

TEST(NextNPrefetcher, ProposesTheNextNPages)
{
    auto pf = makePrefetcher("next:3");
    std::vector<Addr> out;
    pf->observe(10, /*demandMiss=*/true, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 11u);
    EXPECT_EQ(out[1], 12u);
    EXPECT_EQ(out[2], 13u);
}

TEST(StridePrefetcher, DetectsForwardStride)
{
    StridePrefetcher pf;
    std::vector<Addr> out;
    pf.observe(100, true, out);
    pf.observe(103, true, out);
    EXPECT_TRUE(out.empty());   // one delta is not a pattern
    pf.observe(106, true, out);
    ASSERT_EQ(out.size(), 4u);  // default degree
    EXPECT_EQ(out[0], 109u);
    EXPECT_EQ(out[3], 118u);
    ASSERT_TRUE(pf.strideOf(106).has_value());
    EXPECT_EQ(*pf.strideOf(106), 3);
}

TEST(StridePrefetcher, DetectsNegativeStride)
{
    StridePrefetcher pf;
    std::vector<Addr> out;
    pf.observe(100, true, out);
    pf.observe(97, true, out);
    pf.observe(94, true, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 91u);
    EXPECT_EQ(out[3], 82u);
    EXPECT_EQ(*pf.strideOf(94), -3);
}

TEST(StridePrefetcher, NegativeStrideStopsAtPageZero)
{
    StridePrefetcher pf;
    std::vector<Addr> out;
    pf.observe(8, true, out);
    pf.observe(5, true, out);
    pf.observe(2, true, out);   // 2 - 3 would underflow
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(*pf.strideOf(2), -3);
}

TEST(StridePrefetcher, IntraPageRepeatsDoNotBreakTheStride)
{
    StridePrefetcher pf;
    std::vector<Addr> out;
    pf.observe(10, true, out);
    pf.observe(13, true, out);
    pf.observe(13, false, out);   // per-line traffic inside the page
    pf.observe(13, false, out);
    pf.observe(16, true, out);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 19u);
}

TEST(StridePrefetcher, IrregularDeltasNeverConfirm)
{
    StridePrefetcher pf;
    std::vector<Addr> out;
    for (Addr vpn : {0, 1, 3, 6, 10, 15, 21}) {   // deltas 1,2,3,...
        pf.observe(vpn, true, out);
        EXPECT_TRUE(out.empty());
    }
    EXPECT_FALSE(pf.strideOf(21).has_value());
}

TEST(CorrelationPrefetcher, RepeatedLoopConfirmsAndChains)
{
    CorrelationPrefetcher pf;
    std::vector<Addr> out;
    const Addr loop[] = {10, 500, 77};
    // Lap 1 records, lap 2 confirms, lap 3 predicts.
    for (int lap = 0; lap < 2; ++lap) {
        for (Addr vpn : loop) {
            pf.observe(vpn, true, out);
            EXPECT_TRUE(out.empty());
        }
    }
    EXPECT_EQ(pf.transitionCount(10, 500), 2u);
    EXPECT_EQ(pf.transitionCount(500, 77), 2u);
    pf.observe(10, true, out);
    ASSERT_EQ(out.size(), 2u);   // default chain depth
    EXPECT_EQ(out[0], 500u);
    EXPECT_EQ(out[1], 77u);
}

TEST(CorrelationPrefetcher, UniqueStreamPredictsNothing)
{
    CorrelationPrefetcher pf;
    std::vector<Addr> out;
    Rng rng(3);
    Addr vpn = 0;
    for (int i = 0; i < 200; ++i) {
        vpn += 1 + rng.below(1000);   // strictly increasing: no repeats
        pf.observe(vpn, true, out);
        EXPECT_TRUE(out.empty());
    }
}

TEST(CorrelationPrefetcher, IntraPageRepeatsAreNotTransitions)
{
    CorrelationPrefetcher pf;
    std::vector<Addr> out;
    pf.observe(10, true, out);
    pf.observe(10, false, out);
    pf.observe(10, false, out);
    EXPECT_EQ(pf.transitionCount(10, 10), 0u);
}

TEST(AdaptivePrefetcher, ThrottlesToZeroOnUselessPrefetches)
{
    AdaptivePrefetcher pf;
    std::vector<Addr> out;
    // A perfectly regular stream the stride detector loves — but every
    // issued prefetch goes unused, so accuracy feedback must win.
    Addr vpn = 0;
    for (int i = 0; i < 400; ++i) {
        out.clear();
        pf.observe(vpn, true, out);
        vpn += 2;
        if (!out.empty())
            pf.onPrefetchIssued(out.size());   // ... and never useful
    }
    EXPECT_EQ(pf.currentDegree(), 0u);
    EXPECT_LT(pf.accuracy(), 0.10);

    // While throttled, only the occasional probe escapes.
    int proposals = 0;
    for (int i = 0; i < 96; ++i) {
        out.clear();
        pf.observe(vpn, true, out);
        vpn += 2;
        if (!out.empty()) {
            ++proposals;
            pf.onPrefetchIssued(out.size());
        }
    }
    EXPECT_LE(proposals, 3);   // probePeriod = 32
}

TEST(AdaptivePrefetcher, StaysAtFullDegreeWhenAccurate)
{
    AdaptivePrefetcher pf;
    AdaptiveConfig cfg;   // defaults: what pf runs with
    std::vector<Addr> out;
    Addr vpn = 0;
    for (int i = 0; i < 400; ++i) {
        out.clear();
        pf.observe(vpn, true, out);
        vpn += 2;
        if (!out.empty()) {
            pf.onPrefetchIssued(out.size());
            for (Addr c : out)
                pf.onPrefetchUseful(c);
        }
    }
    EXPECT_EQ(pf.currentDegree(), cfg.maxDegree);
    EXPECT_GT(pf.accuracy(), 0.9);
    EXPECT_GT(pf.issuedTotal(), 100u);
    EXPECT_EQ(pf.usefulTotal(), pf.issuedTotal());
}

// ------------------------------------------------------- credits/queue

TEST(CreditBucket, StartsFullAndRefillsWithSimTime)
{
    CreditBucket bucket(100.0, 4);
    EXPECT_EQ(bucket.available(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bucket.tryConsume());
    EXPECT_FALSE(bucket.tryConsume());

    bucket.advanceTo(250);   // 2.5 credits earned
    EXPECT_EQ(bucket.available(), 2u);
    bucket.advanceTo(240);   // time regression: ignored, not minted
    EXPECT_EQ(bucket.available(), 2u);
    bucket.advanceTo(350);   // +100ns plus the banked 50ns remainder
    EXPECT_EQ(bucket.available(), 3u);
    bucket.advanceTo(1'000'000);
    EXPECT_EQ(bucket.available(), 4u);   // capped at burst
}

TEST(PrefetchQueue, DedupCapacityAndClear)
{
    PrefetchQueue q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_FALSE(q.push(1));   // duplicate
    EXPECT_TRUE(q.contains(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_FALSE(q.push(3));   // full
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front(), 1u);
    q.pop();
    EXPECT_FALSE(q.contains(1));
    EXPECT_EQ(q.front(), 2u);
    EXPECT_EQ(q.clear(), 1u);
    EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------- FPGA engine

/** One-node rack with four slabs mapped at the base of VFMem. */
class PrefetchEngineFixture : public ::testing::Test
{
  protected:
    PrefetchEngineFixture() : controller(1 * MiB)
    {
        node = std::make_unique<MemoryNode>(fabric, 7, 32 * MiB);
        controller.registerNode(*node);
        baseConfig.vfmemBase = 0x400000000000ULL;
        baseConfig.vfmemSize = 8 * MiB;
        baseConfig.fmemSize = 1 * MiB;
        base = baseConfig.vfmemBase;
    }

    /** An FPGA with @p cfg and the four slabs mapped. */
    std::unique_ptr<CoherentFpga>
    makeFpga(const FpgaConfig &cfg)
    {
        auto fpga = std::make_unique<CoherentFpga>(fabric, 0, cfg);
        for (int i = 0; i < 4; ++i) {
            SlabGrant g =
                *controller.allocateSlab(PlacementRequest{.required = true});
            fpga->translation().addSlab(base + i * g.size, g);
        }
        return fpga;
    }

    Fabric fabric;
    Controller controller;
    std::unique_ptr<MemoryNode> node;
    FpgaConfig baseConfig;
    Addr base = 0;
};

TEST_F(PrefetchEngineFixture, CreditBudgetBoundsIssues)
{
    FpgaConfig cfg = baseConfig;
    cfg.prefetchPolicy = "next:8";
    cfg.prefetchCreditBurst = 2;
    cfg.prefetchCreditRefillNs = 1e9;   // no refill within this test
    auto fpga = makeFpga(cfg);

    SimClock clock;
    fpga->serveLine(base, AccessType::Read, clock);
    PrefetchStats s = fpga->prefetchStats();
    EXPECT_EQ(s.predicted, 8u);
    EXPECT_EQ(s.issued, 2u);   // burst spent, leftovers stay staged
    EXPECT_EQ(s.droppedNoCredit, 0u);

    // The next access drops what the budget could not cover in time.
    fpga->serveLine(base + cacheLineSize, AccessType::Read, clock);
    s = fpga->prefetchStats();
    EXPECT_EQ(s.issued, 2u);
    EXPECT_EQ(s.droppedNoCredit, 6u);
}

TEST_F(PrefetchEngineFixture, UsefulAndWastedMatchHandOracle)
{
    FpgaConfig cfg = baseConfig;
    cfg.prefetchPolicy = "next:1";
    auto fpga = makeFpga(cfg);
    SimClock clock;

    // Touch pages 0, 2, 4: each demand fetch prefetches page+1, and
    // the stream never comes back for them -> oracle: 3 issued, all
    // wasted once dropped, none useful.
    for (Addr p : {0, 2, 4})
        fpga->serveLine(base + p * pageSize, AccessType::Read, clock);
    PrefetchStats s = fpga->prefetchStats();
    EXPECT_EQ(s.issued, 3u);
    EXPECT_EQ(s.useful, 0u);

    Addr vpn0 = pageNumber(base);
    for (Addr p : {1, 3, 5}) {
        EXPECT_TRUE(fpga->pageResident(vpn0 + p));
        fpga->dropPage(vpn0 + p);
    }
    s = fpga->prefetchStats();
    EXPECT_EQ(s.wasted, 3u);
    EXPECT_EQ(s.useful, 0u);
}

TEST_F(PrefetchEngineFixture, SequentialStreamIsAllUseful)
{
    FpgaConfig cfg = baseConfig;
    cfg.prefetchPolicy = "next:1";
    auto fpga = makeFpga(cfg);
    SimClock clock;

    // Pages 0..3 in order: 0 misses, 1..3 are prefetched just ahead,
    // and touching 3 speculates one page past the stream's end ->
    // oracle: 4 issued, 3 useful, 1 demand fetch, 0 wasted (page 4 is
    // still resident, not evicted).
    for (Addr p = 0; p < 4; ++p)
        fpga->serveLine(base + p * pageSize, AccessType::Read, clock);
    PrefetchStats s = fpga->prefetchStats();
    EXPECT_EQ(s.issued, 4u);
    EXPECT_EQ(s.useful, 3u);
    EXPECT_EQ(s.wasted, 0u);
    EXPECT_EQ(fpga->demandFetches(), 1u);
    EXPECT_EQ(fpga->remoteFetches(), 5u);   // demand + prefetches
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.75);
}

TEST_F(PrefetchEngineFixture, PrefetchFallsBackToReplicaOnDownNode)
{
    // Replica on a second node so the speculation has somewhere to go.
    MemoryNode node2(fabric, 8, 32 * MiB);
    controller.registerNode(node2);

    FpgaConfig cfg = baseConfig;
    cfg.prefetchPolicy = "next:1";
    CoherentFpga fpga(fabric, 3, cfg, {}, &controller);
    SlabGrant a = *controller.allocateSlab(PlacementRequest{.required = true});
    SlabGrant b = *controller.allocateSlab(PlacementRequest{.required = true});
    ASSERT_NE(a.where.node, b.where.node);
    SlabGrant primary = a.where.node == 7 ? a : b;
    SlabGrant replica = a.where.node == 7 ? b : a;
    fpga.translation().addSlab(base, primary, {replica});

    SimClock clock;
    fpga.serveLine(base, AccessType::Read, clock);   // fetch 0, pf 1
    ASSERT_TRUE(fpga.pageResident(pageNumber(base) + 1));

    // A slow replica link makes the success's latency sample visible
    // in node 8's score.
    FaultInjector injector;
    injector.profile(8).degradeDelayNs = 1'000'000;
    fabric.setFaultInjector(&injector);
    fabric.setNodeDown(7, true);

    // FMem hit on the prefetched page; the engine now wants page 2,
    // whose primary is down. The speculation reports the dead primary
    // to the health scorer and serves the page from the replica — no
    // promotion, no retry loop, no warning.
    ServeStatus s =
        fpga.serveLine(base + pageSize, AccessType::Read, clock);
    EXPECT_EQ(s, ServeStatus::FMemHit);
    EXPECT_TRUE(fpga.pageResident(pageNumber(base) + 2));
    EXPECT_EQ(fpga.prefetchReplicaFallbacks(), 1u);
    EXPECT_EQ(fpga.prefetchStats().droppedNodeDown, 0u);
    EXPECT_EQ(fpga.translation().translate(base).node, 7u);
    EXPECT_EQ(fpga.replicas().promotions(), 0u);
    // Exactly one failure sample for the dead primary (node 7's
    // earlier samples were clean), and the replica's success reached
    // the scorer with its latency.
    const double alpha = controller.healthPolicy().ewmaAlpha;
    EXPECT_DOUBLE_EQ(controller.healthScore(7), alpha);
    EXPECT_GT(controller.healthScore(8), alpha);

    // With every copy unreachable the speculation gives up silently.
    fabric.setNodeDown(8, true);
    fpga.serveLine(base + 2 * pageSize, AccessType::Read, clock);
    EXPECT_FALSE(fpga.pageResident(pageNumber(base) + 3));
    EXPECT_EQ(fpga.prefetchStats().droppedNodeDown, 1u);
    fabric.setNodeDown(7, false);
    fabric.setNodeDown(8, false);
    fabric.setFaultInjector(nullptr);
}

TEST_F(PrefetchEngineFixture, NextOnePolicyString)
{
    FpgaConfig cfg = baseConfig;
    cfg.prefetchPolicy = "next:1";
    auto fpga = makeFpga(cfg);
    ASSERT_NE(fpga->prefetcher(), nullptr);
    EXPECT_EQ(fpga->prefetcher()->name(), "next:1");

    SimClock clock;
    fpga->serveLine(base, AccessType::Read, clock);
    EXPECT_TRUE(fpga->pageResident(pageNumber(base) + 1));
    EXPECT_EQ(fpga->prefetches(), 1u);
}

// --------------------------------------------------------- integration

struct SweepResult
{
    std::uint64_t demand = 0;
    PrefetchStats stats;
};

/**
 * Run @p stream (page indices into an 8MiB region) on a KonaRuntime
 * whose FMem holds a quarter of the footprint.
 */
SweepResult
runStream(const std::string &policy,
          const std::vector<std::size_t> &stream)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    MemoryNode node(fabric, 1, 128 * MiB);
    controller.registerNode(node);
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 32 * MiB;
    cfg.fpga.fmemSize = 2 * MiB;
    cfg.fpga.prefetchPolicy = policy;
    cfg.hierarchy = HierarchyConfig::scaled();
    KonaRuntime runtime(fabric, controller, 0, cfg);

    constexpr std::size_t span = 8 * MiB;
    Addr region = runtime.allocate(span, pageSize);
    for (std::size_t page : stream)
        (void)runtime.load<std::uint64_t>(region + page * pageSize);

    SweepResult r;
    r.demand = runtime.fpga().demandFetches();
    r.stats = runtime.fpga().prefetchStats();
    return r;
}

TEST(PrefetchIntegration, StrideCutsSequentialDemandFetches)
{
    constexpr std::size_t numPages = 8 * MiB / pageSize;
    std::vector<std::size_t> stream;
    for (std::size_t i = 0; i < numPages; ++i)
        stream.push_back(i);

    SweepResult off = runStream("off", stream);
    SweepResult stride = runStream("stride:4", stream);
    EXPECT_EQ(off.demand, numPages);
    // The acceptance bar is a 30% reduction; the detector should do
    // far better on a pure sequential stream.
    EXPECT_LE(stride.demand, off.demand * 7 / 10);
    EXPECT_GT(stride.stats.accuracy(), 0.9);
}

TEST(PrefetchIntegration, AdaptiveThrottlesOnRandomStream)
{
    constexpr std::size_t numPages = 8 * MiB / pageSize;
    std::vector<std::size_t> stream;
    Rng rng(17);
    for (std::size_t i = 0; i < numPages; ++i)
        stream.push_back(rng.below(numPages));

    SweepResult next = runStream("next:1", stream);
    SweepResult adaptive = runStream("adaptive:4", stream);
    ASSERT_GT(next.stats.issued, 100u);
    // Feedback-directed throttling: a uniform-random stream earns no
    // bandwidth (acceptance bar: < 5% of the static policy's issues).
    EXPECT_LT(adaptive.stats.issued, next.stats.issued / 20);
}

} // namespace
} // namespace kona
