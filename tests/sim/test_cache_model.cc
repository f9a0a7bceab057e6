/**
 * @file
 * Tests for the analytical cache model, including cross-validation
 * against the trace-driven cache simulator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hh"
#include "common/units.hh"
#include "sim/access_gen.hh"
#include "sim/cache_model.hh"
#include "sim/cache_sim.hh"

namespace seqpoint {
namespace sim {
namespace {

TEST(CapacityHitFraction, FullReuseWhenFits)
{
    EXPECT_DOUBLE_EQ(capacityHitFraction(0.8, 1000.0, 2000.0), 0.8);
    EXPECT_DOUBLE_EQ(capacityHitFraction(0.8, 2000.0, 2000.0), 0.8);
}

TEST(CapacityHitFraction, PowerLawDecayBeyondCapacity)
{
    double h = capacityHitFraction(0.8, 4000.0, 1000.0, 0.5);
    EXPECT_NEAR(h, 0.8 * 0.5, 1e-12); // (1/4)^0.5 = 0.5
}

TEST(CapacityHitFraction, ZeroCapacityMeansNoHits)
{
    EXPECT_DOUBLE_EQ(capacityHitFraction(0.8, 100.0, 0.0), 0.0);
}

TEST(CapacityHitFraction, MonotoneInCapacity)
{
    double prev = 0.0;
    for (double cap = 1000.0; cap <= 64000.0; cap *= 2.0) {
        double h = capacityHitFraction(0.9, 100000.0, cap);
        EXPECT_GE(h, prev);
        prev = h;
    }
}

TEST(MemoryBreakdown, ConservesBytes)
{
    KernelDesc k = makeElementwise(KernelStem("ew"), 1e6, 1.0, 2.0, 1.0);
    GpuConfig cfg = GpuConfig::config1();
    MemoryBreakdown mb = evalMemoryBreakdown(k, cfg);
    EXPECT_NEAR(mb.l1Bytes + mb.l2Bytes + mb.dramBytes,
                k.totalBytes(), 1.0);
}

TEST(MemoryBreakdown, DisabledL1SendsTrafficDown)
{
    KernelDesc k = makeElementwise(KernelStem("ew"), 1e5, 1.0, 2.0, 1.0);
    k.reuseL1 = 0.5;
    k.workingSetL1 = 1000.0; // easily fits

    MemoryBreakdown with_l1 =
        evalMemoryBreakdown(k, GpuConfig::config1());
    MemoryBreakdown no_l1 = evalMemoryBreakdown(k, GpuConfig::config4());

    EXPECT_GT(with_l1.l1Bytes, 0.0);
    EXPECT_DOUBLE_EQ(no_l1.l1Bytes, 0.0);
    EXPECT_GT(no_l1.l2Bytes + no_l1.dramBytes,
              with_l1.l2Bytes + with_l1.dramBytes - 1.0);
}

TEST(MemoryBreakdown, DisabledL2SendsTrafficToDram)
{
    KernelDesc k = makeElementwise(KernelStem("ew"), 1e5, 1.0, 2.0, 1.0);
    MemoryBreakdown no_l2 = evalMemoryBreakdown(k, GpuConfig::config5());
    EXPECT_DOUBLE_EQ(no_l2.l2Bytes, 0.0);
    EXPECT_GT(no_l2.dramBytes,
              evalMemoryBreakdown(k, GpuConfig::config1()).dramBytes);
}

/**
 * The byte split with one capacityHitFraction() per reuse level: the
 * L2 load fraction from reuseL2 and the store fraction from
 * 0.5 * reuseL2, each decaying on its own.
 */
MemoryBreakdown
separateFactorBreakdown(const KernelDesc &desc, const GpuConfig &cfg)
{
    double l1_cap = static_cast<double>(cfg.l1SizeBytes);
    double l2_cap = static_cast<double>(cfg.l2SizeBytes);
    double h1 = capacityHitFraction(desc.reuseL1, desc.workingSetL1, l1_cap);
    double h2 = capacityHitFraction(desc.reuseL2, desc.workingSetL2, l2_cap);
    double store_h2 = capacityHitFraction(0.5 * desc.reuseL2,
                                          desc.workingSetL2, l2_cap);

    double loads = desc.bytesIn;
    double l1_load = loads * h1;
    double l2_load = (loads - l1_load) * h2;
    double dram_load = loads - l1_load - l2_load;
    double l2_store = desc.bytesOut * store_h2;

    MemoryBreakdown mb;
    mb.l1Bytes = l1_load;
    mb.l2Bytes = l2_load + l2_store;
    mb.dramBytes = dram_load + (desc.bytesOut - l2_store);
    mb.l1HitRate = loads > 0.0 ? h1 : 0.0;
    mb.l2HitRate = h2;
    return mb;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(MemoryBreakdown, SharedL2FactorMatchesSeparateFractionsBitwise)
{
    // One L2 decay factor serves loads (r * f) and stores
    // ((0.5 * r) * f); each must equal its own capacityHitFraction().
    // Working sets straddle L2 capacity on both sides and sit exactly
    // on it; config #5 has no L2 and config #4 no L1.
    const double l2_cap =
        static_cast<double>(GpuConfig::config1().l2SizeBytes);
    const double working_sets[] = {
        1.0, 0.37 * l2_cap, std::nextafter(l2_cap, 0.0), l2_cap,
        std::nextafter(l2_cap, 2.0 * l2_cap), 1.5 * l2_cap,
        7.3 * l2_cap, 1e6 * l2_cap};
    const double reuses[] = {0.0, 1.0, 0.82, 0.3, 4.9e-324};
    const GpuConfig configs[] = {GpuConfig::config1(),
                                 GpuConfig::config4(),
                                 GpuConfig::config5()};

    size_t checked = 0;
    for (const GpuConfig &cfg : configs) {
        for (double ws : working_sets) {
            for (double r : reuses) {
                KernelDesc k = makeElementwise(KernelStem("l2"), 3.1e5, 1.0,
                                               2.0, 1.0);
                k.bytesIn = 7.77e6;
                k.bytesOut = 2.13e6;
                k.reuseL1 = 0.35;
                k.workingSetL1 = 12345.0;
                k.reuseL2 = r;
                k.workingSetL2 = ws;
                MemoryBreakdown got = evalMemoryBreakdown(k, cfg);
                MemoryBreakdown want = separateFactorBreakdown(k, cfg);
                EXPECT_TRUE(sameBits(got.l1Bytes, want.l1Bytes) &&
                            sameBits(got.l2Bytes, want.l2Bytes) &&
                            sameBits(got.dramBytes, want.dramBytes) &&
                            sameBits(got.l1HitRate, want.l1HitRate) &&
                            sameBits(got.l2HitRate, want.l2HitRate))
                    << cfg.name << " ws=" << ws << " reuseL2=" << r;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 3u * 8u * 5u);

    // The L2 load and store paths really are live on config #1 above
    // capacity, and dead on config #5.
    KernelDesc k = makeElementwise(KernelStem("l2"), 1e5, 1.0, 2.0, 1.0);
    k.reuseL2 = 1.0;
    k.workingSetL2 = 4.0 * l2_cap;
    EXPECT_GT(evalMemoryBreakdown(k, GpuConfig::config1()).l2Bytes, 0.0);
    EXPECT_EQ(evalMemoryBreakdown(k, GpuConfig::config5()).l2Bytes, 0.0);
}

TEST(MemoryBreakdownDeath, OutOfRangeL2ReusePanics)
{
    KernelDesc k = makeElementwise(KernelStem("l2"), 1e5, 1.0, 2.0, 1.0);
    k.reuseL2 = 1.5;
    EXPECT_DEATH(evalMemoryBreakdown(k, GpuConfig::config1()),
                 "reuse_max out of");
    k.reuseL2 = -0.25;
    EXPECT_DEATH(evalMemoryBreakdown(k, GpuConfig::config1()),
                 "reuse_max out of");
    // Even with no L2 to serve from, the range check holds.
    EXPECT_DEATH(evalMemoryBreakdown(k, GpuConfig::config5()),
                 "reuse_max out of");
}

/**
 * Cross-validation of the analytical capacity law against the
 * trace-driven simulator on a hot/cold access mix, at every capacity
 * of the ablation table. LRU churn from the cold stream keeps the
 * measured rate below the law's optimistic value up to the hot-set
 * size (it tracks roughly 0.55x of the p = 1 law there), hit rate is
 * monotone in capacity, and once capacity comfortably exceeds the
 * hot set the measurement settles at the intrinsic reuse.
 */
TEST(CacheModelValidation, PowerLawTracksSimulatorOnHotCold)
{
    const uint64_t hot = kib(64);
    const uint64_t cold = mib(8);
    const double hot_frac = 0.6;

    double prev = -1.0;
    for (uint64_t cap_kib : {16, 32, 64, 128, 256, 512}) {
        const uint64_t cap = kib(cap_kib);
        CacheSim cache(cap, 8, 64);
        Rng rng(99);
        double m = measureHitRate(cache, [&](const AccessSink &sink) {
            genHotCold(200000, hot, cold, hot_frac, rng, sink);
        });

        // Monotone in capacity.
        EXPECT_GE(m, prev - 0.02) << cap_kib;
        prev = m;

        // At or below the hot set: a fixed fraction of the p = 1 law.
        if (cap <= hot) {
            double law = capacityHitFraction(hot_frac,
                static_cast<double>(hot), static_cast<double>(cap), 1.0);
            EXPECT_GE(m, 0.4 * law) << cap_kib;
            EXPECT_LE(m, 1.0 * law) << cap_kib;
        }

        // At >= 4x the hot set: (nearly) all hot reuse is captured.
        if (cap >= 4 * hot)
            EXPECT_NEAR(m, hot_frac, 0.03) << cap_kib;
    }
}

/**
 * Exact statistics of each generator's stream at the capacity
 * ablation's parameters. They pin the access sequences themselves
 * (element-granular GEMM panel walks, the hot/cold RNG draws), so
 * any change to a generator shows up here even when the hit rate it
 * feeds a table rounds to the same figure.
 */
TEST(CacheModelValidation, GeneratorStreamsArePinned)
{
    struct Golden {
        uint64_t capKib;
        CacheStats stream, gemm, hotcold;
    };
    const Golden goldens[] = {
        // capacity, then {accesses, hits, misses, evictions,
        // writebacks} for stream, blocked GEMM and hot/cold.
        {16,
         {65536, 0, 65536, 65280, 0},
         {393216, 368640, 24576, 24320, 4032},
         {100000, 8779, 91221, 90965, 0}},
        {512,
         {65536, 0, 65536, 57344, 0},
         {393216, 384000, 9216, 1024, 512},
         {100000, 61022, 38978, 30786, 0}},
    };
    for (const Golden &g : goldens) {
        CacheSim cache(kib(g.capKib), 8, 64);
        measureHitRate(cache, [](const AccessSink &sink) {
            genStreaming(mib(4), 64, sink);
        });
        EXPECT_EQ(cache.stats(), g.stream) << g.capKib;
        measureHitRate(cache, [](const AccessSink &sink) {
            genBlockedGemm(256, 256, 256, 64, sink);
        });
        EXPECT_EQ(cache.stats(), g.gemm) << g.capKib;
        Rng rng(99);
        measureHitRate(cache, [&](const AccessSink &sink) {
            genHotCold(100000, kib(64), mib(8), 0.6, rng, sink);
        });
        EXPECT_EQ(cache.stats(), g.hotcold) << g.capKib;
    }
}

TEST(CacheModelValidation, StreamingHasNoReuse)
{
    CacheSim cache(kib(16), 4, 64);
    double measured = measureHitRate(cache,
        [](const AccessSink &sink) { genStreaming(mib(4), 64, sink); });
    EXPECT_LT(measured, 0.01);
}

TEST(CacheModelValidation, BlockedGemmReusesInLargeCache)
{
    // A 256x256x256 GEMM walked in 64-tiles against a cache large
    // enough for the panels shows substantial reuse; a tiny cache
    // keeps only the intra-line spatial hits of the element-granular
    // panel-row walks and misses several times more often.
    CacheSim big(mib(4), 16, 64);
    double hit_big = measureHitRate(big, [](const AccessSink &sink) {
        genBlockedGemm(256, 256, 256, 64, sink);
    });

    CacheSim small(kib(8), 4, 64);
    double hit_small = measureHitRate(small, [](const AccessSink &sink) {
        genBlockedGemm(256, 256, 256, 64, sink);
    });

    EXPECT_GT(hit_big, hit_small);
    EXPECT_GT(1.0 - hit_small, 2.0 * (1.0 - hit_big));
}

} // anonymous namespace
} // namespace sim
} // namespace seqpoint
