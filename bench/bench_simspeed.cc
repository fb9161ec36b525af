/**
 * @file
 * Wall-clock simulator-throughput benchmark. Unlike the paper-figure
 * benches (which report *simulated* time), this one measures how fast
 * the simulator itself executes — accesses per wall-clock second —
 * driving seq/stride/random/graph mixes through the full stack:
 * hierarchy -> FPGA -> fabric -> eviction.
 *
 * The seq/stride/random mixes span 32MB: larger than the modelled L3
 * (8MB) but smaller than FMem (64MB), so their steady state is the
 * LLC-miss -> FMem-hit path that dominates every experiment. The
 * graph mix pointer-chases a 96MB cycle (> FMem), keeping the demand
 * fetch + eviction machinery continuously busy.
 *
 * A global operator new/delete hook counts heap allocations inside
 * each timed loop; the steady-state access path is required to be
 * allocation-free (see DESIGN.md "Simulator performance").
 * --strict-alloc turns any steady-state allocation on the resident
 * mixes into a failure; CI runs with it.
 *
 * The "mrandom" mix drives the same random workload through FOUR
 * compute nodes of a MultiRack under the parallel engine (ShardGate +
 * ParallelDriver, DESIGN.md §16), sweeping the shard-concurrency cap.
 * Every thread count must produce the bit-identical run — identical
 * metric-registry fingerprint, identical memory content, identical
 * canonical cross-shard event log — and the t>1 rows report their
 * speedup over the t=1 reference schedule.
 *
 * Flags: --quick (short CI preset), --strict-alloc,
 *        --threads=N (sweep {1,N} instead of {1,2,4,8}),
 *        --metrics-json=PATH (exports result.simspeed.*).
 */

#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench/alloc_hook.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "rack/multi_rack.h"
#include "rack/parallel_driver.h"

namespace kona {
namespace {

using Clock = std::chrono::steady_clock;

struct MixResult
{
    std::string name;
    std::uint64_t ops = 0;
    double wallNs = 0;       ///< wall-clock ns for the timed loop
    std::uint64_t allocs = 0;///< heap allocations inside the timed loop
    Tick simNs = 0;          ///< simulated app-time advanced by the loop
};

double
opsPerSec(const MixResult &r)
{
    return r.wallNs > 0 ? r.ops / (r.wallNs / 1e9) : 0.0;
}

double
nsPerOp(const MixResult &r)
{
    return r.ops > 0 ? r.wallNs / static_cast<double>(r.ops) : 0.0;
}

double
allocsPerOp(const MixResult &r)
{
    return r.ops > 0 ? r.allocs / static_cast<double>(r.ops) : 0.0;
}

/** A fresh Kona stack for one mix (prefetch off, trace off). */
struct Stack
{
    Stack()
    {
        KonaConfig cfg;
        // Defaults: 64MB FMem, 1GB VFMem, full-size hierarchy
        // (32K/1M/8M). Keep them — the mixes are sized around them.
        runtime = std::make_unique<KonaRuntime>(rack.fabric,
                                                rack.controller, 0, cfg);
    }

    bench::Rack rack;
    std::unique_ptr<KonaRuntime> runtime;
};

/** Touch every page of [base, base+span) so it is FMem-resident
 *  before the timed loop starts. */
void
warmSpan(KonaRuntime &rt, Addr base, std::size_t span)
{
    std::uint8_t page[pageSize];
    for (std::size_t off = 0; off < span; off += pageSize)
        rt.read(base + off, page, pageSize);
}

/**
 * Attach a sim-time sampler post-warm and keep it ticking through the
 * timed loop: sampling is always on here, so --strict-alloc also
 * proves onTick()/closeWindow() are allocation-free in steady state.
 */
void
attachSampler(KonaRuntime &rt, TimeSeriesSampler &sampler)
{
    sampler.attach(rt.metrics(), rt.appTime());
    rt.setTimeSeriesSampler(&sampler);
}

/** Write one mix's sampler to --timeseries-out= with ".<mix>" spliced
 *  in before the extension (each mix has its own stack + registry). */
void
writeMixTimeseries(const std::string &mix, KonaRuntime &rt,
                   TimeSeriesSampler &sampler)
{
    sampler.finish(rt.appTime());
    const std::string &path = bench::exportOptions().timeseriesOut;
    if (path.empty())
        return;
    std::string out = path;
    std::size_t dot = out.rfind('.');
    if (dot == std::string::npos)
        out += "." + mix;
    else
        out.insert(dot, "." + mix);
    sampler.writeFile(out);
}

/**
 * Run one timed loop. @p body performs exactly @p ops accesses; the
 * allocation counter and wall clock are diffed around it.
 */
template <typename Body>
MixResult
timed(const std::string &name, KonaRuntime &rt, std::uint64_t ops,
      Body &&body)
{
    MixResult r;
    r.name = name;
    r.ops = ops;
    Tick simStart = rt.appTime();
    std::uint64_t allocStart =
        bench::allocCount();
    Clock::time_point t0 = Clock::now();
    body();
    Clock::time_point t1 = Clock::now();
    r.allocs =
        bench::allocCount() - allocStart;
    r.wallNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    r.simNs = rt.appTime() - simStart;
    return r;
}

/** Sequential 64B reads (1 write per 4 ops) over a 32MB span. */
MixResult
runSeq(std::uint64_t ops)
{
    Stack stack;
    KonaRuntime &rt = *stack.runtime;
    constexpr std::size_t span = 32 * MiB;
    Addr base = rt.allocate(span, pageSize);
    warmSpan(rt, base, span);
    TimeSeriesSampler sampler;
    attachSampler(rt, sampler);

    std::uint64_t buf = 0;
    MixResult r = timed("seq", rt, ops, [&] {
        std::size_t off = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            if ((i & 3) == 3)
                rt.write(base + off, &buf, sizeof(buf));
            else
                rt.read(base + off, &buf, sizeof(buf));
            off += cacheLineSize;
            if (off >= span)
                off = 0;
        }
    });
    writeMixTimeseries("seq", rt, sampler);
    return r;
}

/** 1KB-stride 8B accesses (25% writes) over a 32MB span. */
MixResult
runStride(std::uint64_t ops)
{
    Stack stack;
    KonaRuntime &rt = *stack.runtime;
    constexpr std::size_t span = 32 * MiB;
    constexpr std::size_t stride = 1024;
    Addr base = rt.allocate(span, pageSize);
    warmSpan(rt, base, span);
    TimeSeriesSampler sampler;
    attachSampler(rt, sampler);

    std::uint64_t buf = 0;
    MixResult r = timed("stride", rt, ops, [&] {
        std::size_t off = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            if ((i & 3) == 1)
                rt.write(base + off, &buf, sizeof(buf));
            else
                rt.read(base + off, &buf, sizeof(buf));
            off += stride;
            if (off >= span)
                off = (off + cacheLineSize) % stride;
        }
    });
    writeMixTimeseries("stride", rt, sampler);
    return r;
}

/** Uniform-random 8B accesses (30% writes) over a 32MB span. */
MixResult
runRandom(std::uint64_t ops)
{
    Stack stack;
    KonaRuntime &rt = *stack.runtime;
    constexpr std::size_t span = 32 * MiB;
    Addr base = rt.allocate(span, pageSize);
    warmSpan(rt, base, span);
    TimeSeriesSampler sampler;
    attachSampler(rt, sampler);

    Rng rng(0x51eedull);
    std::uint64_t buf = 0;
    MixResult r = timed("random", rt, ops, [&] {
        for (std::uint64_t i = 0; i < ops; ++i) {
            Addr addr = base + rng.below(span / 8) * 8;
            if (rng.chance(0.3))
                rt.write(addr, &buf, sizeof(buf));
            else
                rt.read(addr, &buf, sizeof(buf));
        }
    });
    writeMixTimeseries("random", rt, sampler);
    return r;
}

/**
 * Pointer-chase over a single 96MB permutation cycle (> FMem), so
 * every few ops demand-fetch a page and the eviction pump runs
 * continuously.
 */
MixResult
runGraph(std::uint64_t ops)
{
    Stack stack;
    KonaRuntime &rt = *stack.runtime;
    constexpr std::size_t span = 96 * MiB;
    constexpr std::size_t nodes = span / 8;
    Addr base = rt.allocate(span, pageSize);

    // Sattolo's algorithm: one cycle visiting every node.
    std::vector<std::uint64_t> next(nodes);
    for (std::size_t i = 0; i < nodes; ++i)
        next[i] = i;
    Rng rng(0x9a4full);
    for (std::size_t i = nodes - 1; i > 0; --i) {
        std::size_t j = rng.below(i);
        std::swap(next[i], next[j]);
    }
    // Write the chase array page by page (setup, untimed).
    for (std::size_t off = 0; off < span; off += pageSize)
        rt.write(base + off, next.data() + off / 8, pageSize);
    TimeSeriesSampler sampler;
    attachSampler(rt, sampler);

    std::uint64_t idx = 0;
    MixResult r = timed("graph", rt, ops, [&] {
        for (std::uint64_t i = 0; i < ops; ++i) {
            std::uint64_t value = 0;
            rt.read(base + idx * 8, &value, sizeof(value));
            idx = value;
        }
    });
    // Keep the compiler from dropping the chase.
    if (idx >= nodes)
        fatal("graph chase escaped the node array");
    writeMixTimeseries("graph", rt, sampler);
    return r;
}

/** One parallel-engine run: throughput plus the identity evidence. */
struct MultiResult
{
    unsigned threads = 0;
    MixResult mix;
    std::uint64_t identityHash = 0; ///< fingerprint ⊕ content ⊕ log
    std::uint64_t steadyAllocs = 0; ///< allocs while every shard steady
};

constexpr std::size_t mrandomShards = 4;
constexpr std::size_t mrandomSpan = 8 * MiB; ///< FMem-resident / shard

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Random 8B accesses (30% writes), one private FMem-resident span per
 * compute node, under ParallelDriver with concurrency cap @p threads.
 * Each shard's access stream is a pure function of its own seed, and
 * all cross-shard effects (slab maps, log flushes, evictions) happen
 * inside gated sections, so the whole run is deterministic.
 *
 * Steady-state allocations are measured over the window in which every
 * shard is past warm-up AND past half of its ops but none has finished
 * — the only interval where "zero allocations" is a fair demand of a
 * run that spawns threads and demand-maps slabs at the start.
 */
MultiResult
runMultiRandom(std::uint64_t opsPerShard, unsigned threads)
{
    MultiRackConfig cfg;
    cfg.computeNodes = mrandomShards;
    MultiRack rack(cfg);

    std::vector<Addr> bases;
    for (std::size_t i = 0; i < rack.runtimeCount(); ++i)
        bases.push_back(rack.runtime(i).allocate(mrandomSpan, pageSize));

    std::vector<std::uint64_t> halfMark(rack.runtimeCount(), 0);
    std::vector<std::uint64_t> endMark(rack.runtimeCount(), 0);

    MultiResult out;
    out.threads = threads;
    out.mix.name = "mrandom.t" + std::to_string(threads);
    out.mix.ops = opsPerShard * rack.runtimeCount();

    std::uint64_t h = 1469598103934665603ULL;
    Tick simStart = rack.runtime(0).appTime();
    {
        ParallelDriver driver(rack, threads);
        Clock::time_point t0 = Clock::now();
        driver.run([&](std::size_t shard, KonaRuntime &rt) {
            Addr base = bases[shard];
            warmSpan(rt, base, mrandomSpan);
            Rng rng(0xbe7aull + shard);
            std::uint64_t buf = 0;
            for (std::uint64_t i = 0; i < opsPerShard; ++i) {
                if (i == opsPerShard / 2)
                    halfMark[shard] = bench::allocCount();
                Addr addr = base + rng.below(mrandomSpan / 8) * 8;
                if (rng.chance(0.3)) {
                    buf = (i << 8) ^ shard;
                    rt.write(addr, &buf, sizeof(buf));
                } else {
                    rt.read(addr, &buf, sizeof(buf));
                }
            }
            endMark[shard] = bench::allocCount();
        });
        Clock::time_point t1 = Clock::now();
        out.mix.wallNs = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                 t0)
                .count());
        out.mix.simNs = rack.runtime(0).appTime() - simStart;

        std::uint64_t maxHalf =
            *std::max_element(halfMark.begin(), halfMark.end());
        std::uint64_t minEnd =
            *std::min_element(endMark.begin(), endMark.end());
        out.steadyAllocs = minEnd > maxHalf ? minEnd - maxHalf : 0;
        out.mix.allocs = out.steadyAllocs;

        // Identity evidence, part 1+2: every metric the rack-wide
        // registry holds, then the canonical cross-shard event log.
        h = fnvMix(h, rack.metrics()->fingerprint());
        for (const GateRecord &rec : driver.canonicalLog()) {
            h = fnvMix(h, rec.key.stamp);
            h = fnvMix(h, rec.key.shard);
            h = fnvMix(h, rec.key.seq);
            h = fnvMix(h, static_cast<std::uint64_t>(rec.kind));
        }
        h = fnvMix(h, driver.gate().recordsDropped());
    } // ~ParallelDriver: detach the gate before main-thread reads

    // Part 3: the bytes of every span (reads of resident pages; the
    // fingerprint above was captured first, so this can't perturb it
    // differently per thread count — and it runs gate-free).
    std::vector<std::uint8_t> page(pageSize);
    for (std::size_t i = 0; i < rack.runtimeCount(); ++i) {
        for (std::size_t off = 0; off < mrandomSpan; off += pageSize) {
            rack.runtime(i).read(bases[i] + off, page.data(),
                                 pageSize);
            for (std::size_t b = 0; b < pageSize; ++b) {
                h ^= page[b];
                h *= 1099511628211ULL;
            }
        }
    }
    out.identityHash = h;
    return out;
}

} // namespace
} // namespace kona

int
main(int argc, char **argv)
{
    using namespace kona;
    bench::parseExportFlags(argc, argv);
    setQuietLogging(true);

    bool quick = false;
    bool strictAlloc = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--strict-alloc") == 0)
            strictAlloc = true;
        else
            fatal("unknown flag \"", argv[i],
                  "\"; known: --quick --strict-alloc --threads=N "
                  "--metrics-json=PATH");
    }

    std::uint64_t scale = quick ? 10 : 1;
    MixResult results[] = {
        runSeq(4'000'000 / scale),
        runStride(2'000'000 / scale),
        runRandom(2'000'000 / scale),
        runGraph(200'000 / scale),
    };

    bench::section("Simulator throughput (wall clock, full Kona stack)");
    bench::row("mix", {"accesses", "wall ms", "Macc/s", "ns/acc",
                       "allocs/acc"});
    bool residentAllocs = false;
    for (const MixResult &r : results) {
        bench::row(r.name,
                   {bench::fmtInt(r.ops), bench::fmt(r.wallNs / 1e6, 1),
                    bench::fmt(opsPerSec(r) / 1e6),
                    bench::fmt(nsPerOp(r), 1),
                    bench::fmt(allocsPerOp(r), 4)});
        bench::recordResult("simspeed." + r.name + ".accesses_per_sec",
                            opsPerSec(r));
        bench::recordResult("simspeed." + r.name + ".ns_per_access",
                            nsPerOp(r));
        bench::recordResult("simspeed." + r.name + ".allocs_per_access",
                            allocsPerOp(r));
        if (r.name != "graph" && r.allocs != 0)
            residentAllocs = true;
    }
    std::printf("\nResident mixes (seq/stride/random) must run "
                "allocation-free in steady state;\nthe graph mix "
                "demand-fetches and evicts, so its miss path may "
                "allocate.\n");

    // Parallel engine: 4 compute nodes, random mix, concurrency sweep.
    std::vector<unsigned> sweep = {1, 2, 4, 8};
    if (bench::exportOptions().threads != 0)
        sweep = {1, bench::exportOptions().threads};
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

    std::uint64_t perShard = 500'000 / scale;
    std::vector<MultiResult> multi;
    for (unsigned t : sweep)
        multi.push_back(runMultiRandom(perShard, t));

    bench::section(
        "Parallel engine (4 compute nodes, random mix, ShardGate)");
    bench::row("threads", {"accesses", "wall ms", "Macc/s",
                           "speedup", "identical", "allocs"});
    bool parallelBroken = false;
    double t1Rate = opsPerSec(multi.front().mix);
    for (const MultiResult &m : multi) {
        bool identical =
            m.identityHash == multi.front().identityHash;
        double speedup =
            t1Rate > 0 ? opsPerSec(m.mix) / t1Rate : 0.0;
        bench::row("t=" + std::to_string(m.threads),
                   {bench::fmtInt(m.mix.ops),
                    bench::fmt(m.mix.wallNs / 1e6, 1),
                    bench::fmt(opsPerSec(m.mix) / 1e6),
                    bench::fmt(speedup), identical ? "yes" : "NO",
                    bench::fmtInt(m.steadyAllocs)});
        std::string key = "simspeed." + m.mix.name;
        bench::recordResult(key + ".accesses_per_sec",
                            opsPerSec(m.mix));
        bench::recordResult(key + ".speedup_vs_t1", speedup);
        bench::recordResult(key + ".identical_to_t1",
                            identical ? 1.0 : 0.0);
        bench::recordResult(key + ".allocs_per_access",
                            allocsPerOp(m.mix));
        if (!identical)
            parallelBroken = true;
        if (m.steadyAllocs != 0)
            residentAllocs = true;
    }
    std::printf("\nEvery thread count must reproduce the t=1 run bit "
                "for bit (identical = yes);\nspeedup is wall-clock "
                "and depends on available cores.\n");

    bench::flushExports();

    if (parallelBroken) {
        std::printf("FAIL: a parallel run diverged from the t=1 "
                    "reference (identity hash mismatch)\n");
        return 1;
    }
    if (strictAlloc && residentAllocs) {
        std::printf("FAIL: steady-state heap allocations detected on a "
                    "resident mix (--strict-alloc)\n");
        return 1;
    }
    return 0;
}
