/**
 * @file
 * Tests for the kernel-timing cache: signature canonicalisation,
 * hit/miss accounting, and bit-identical cached vs uncached timing.
 */

#include <gtest/gtest.h>

#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"
#include "sim/gpu.hh"
#include "sim/timing_cache.hh"

namespace seqpoint {
namespace sim {
namespace {

KernelDesc
testGemm(const char *name, int64_t m, int64_t n, int64_t k)
{
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    return nn::resolveKernel(nn::makeGemm(KernelStem(name), m, n, k), tuner);
}

TEST(KernelSignature, IgnoresNameAndRepeat)
{
    KernelDesc a = testGemm("fwd_gemm", 512, 64, 1024);
    KernelDesc b = testGemm("bwd_gemm_renamed", 512, 64, 1024);
    b.repeat = 40;
    EXPECT_EQ(kernelSignature(a), kernelSignature(b));

    KernelDesc c = testGemm("fwd_gemm", 512, 64, 2048);
    EXPECT_FALSE(kernelSignature(a) == kernelSignature(c));
}

TEST(KernelSignature, DistinguishesClasses)
{
    KernelDesc ew = makeElementwise(KernelStem("tanh"), 1e6, 1.0, 1.0, 1.0);
    KernelDesc red = makeReduction(KernelStem("loss_sum"), 1e6);
    EXPECT_FALSE(kernelSignature(ew) == kernelSignature(red));
}

TEST(TimingCache, HitMissAccounting)
{
    GpuConfig cfg = GpuConfig::config1();
    KernelTimingCache cache;

    KernelDesc a = testGemm("a", 512, 64, 1024);
    KernelDesc b = testGemm("b", 256, 64, 1024);

    cache.lookup(a, cfg); // miss
    cache.lookup(a, cfg); // hit
    cache.lookup(b, cfg); // miss
    cache.lookup(a, cfg); // hit

    TimingCacheStats st = cache.stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.lookups(), 4u);
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().lookups(), 0u);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.0);
}

TEST(TimingCache, CachedTimingBitIdenticalToFresh)
{
    GpuConfig cfg = GpuConfig::config1();
    KernelTimingCache cache;
    KernelDesc k = testGemm("k", 1024, 64, 1024);

    KernelTiming fresh = timeKernel(k, cfg);
    KernelTiming first = cache.lookup(k, cfg);
    KernelTiming second = cache.lookup(k, cfg);

    EXPECT_EQ(fresh.timeSec, first.timeSec);
    EXPECT_EQ(fresh.timeSec, second.timeSec);
    EXPECT_EQ(fresh.computeSec, second.computeSec);
    EXPECT_EQ(fresh.memorySec, second.memorySec);
    EXPECT_EQ(fresh.memoryBound, second.memoryBound);
    EXPECT_EQ(fresh.counters.dramBytes, second.counters.dramBytes);
    EXPECT_EQ(fresh.counters.busySec, second.counters.busySec);
}

TEST(GpuTimingCache, ExecuteAllPopulatesAndHits)
{
    Gpu gpu(GpuConfig::config1());

    // An RNN-ish stream: the same cell GEMM under two names plus one
    // distinct kernel. Two unique signatures -> one miss is saved on
    // the duplicate, and re-execution is all hits.
    std::vector<KernelDesc> stream{
        testGemm("cell_fwd", 256, 64, 256),
        testGemm("cell_fwd_t2", 256, 64, 256),
        makeElementwise(KernelStem("gate_math"), 1e5, 4.0, 2.0, 1.0)};

    ExecutionResult first = gpu.executeAll(stream);
    TimingCacheStats st = gpu.timingCacheStats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(gpu.uniqueKernelsTimed(), 2u);

    ExecutionResult second = gpu.executeAll(stream);
    st = gpu.timingCacheStats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.hits, 4u);

    // Replayed timings are bit-identical to the first execution.
    EXPECT_EQ(first.totalSec, second.totalSec);
    EXPECT_EQ(first.counters.dramBytes, second.counters.dramBytes);
}

TEST(GpuTimingCache, DisabledCacheMatchesEnabledBitForBit)
{
    // Every cached record equals timing its kernel afresh, scaled to
    // the kernel's repeat count.
    GpuConfig cfg = GpuConfig::config1();
    Gpu gpu(cfg);

    std::vector<KernelDesc> stream;
    for (int i = 0; i < 8; ++i) {
        stream.push_back(testGemm("g", 128 << (i % 3), 64, 512));
        stream.back().repeat = 1 + i % 4;
    }

    ExecutionResult res = gpu.executeAll(stream, true);

    EXPECT_GT(gpu.timingCacheStats().hits, 0u);
    ASSERT_EQ(res.records.size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
        KernelTiming fresh = timeKernel(stream[i], cfg);
        double r = static_cast<double>(stream[i].repeat);
        fresh.counters *= r;
        EXPECT_EQ(res.records[i].timeSec, fresh.timeSec * r);
        EXPECT_EQ(res.records[i].memoryBound, fresh.memoryBound);
        EXPECT_TRUE(res.records[i].counters == fresh.counters);
    }
}

TEST(GpuTimingCache, RepeatScalesFromOneCachedLaunch)
{
    Gpu gpu(GpuConfig::config1());
    KernelDesc k = testGemm("cell", 256, 64, 256);

    KernelRecord once = gpu.execute(k);
    k.repeat = 50;
    KernelRecord many = gpu.execute(k);

    // Same signature: the repeat=50 launch is a cache hit scaled 50x.
    EXPECT_EQ(gpu.timingCacheStats().misses, 1u);
    EXPECT_EQ(gpu.timingCacheStats().hits, 1u);
    EXPECT_DOUBLE_EQ(many.timeSec, 50.0 * once.timeSec);
}

} // anonymous namespace
} // namespace sim
} // namespace seqpoint
