/**
 * @file
 * Tests for occupancy, compute, DRAM and whole-kernel timing models:
 * the physical monotonicity properties the evaluation relies on, and
 * the bit-exact equality of the counter bundles they produce.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"
#include "sim/compute_model.hh"
#include "sim/counters.hh"
#include "sim/dram_model.hh"
#include "sim/gpu.hh"
#include "sim/occupancy.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace sim {
namespace {

KernelDesc
bigGemm()
{
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    return nn::resolveKernel(
        nn::makeGemm(KernelStem("t_gemm"), 4096, 4096, 1024), tuner);
}

KernelDesc
skinnyGemm()
{
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    return nn::resolveKernel(
        nn::makeGemm(KernelStem("t_skinny"), 4096, 64, 1024), tuner);
}

TEST(PerfCounters, EqualityComparesBitPatterns)
{
    PerfCounters c;
    c.busySec = std::nan("");
    c.launchSec = -0.0;
    PerfCounters copy = c;
    EXPECT_TRUE(c == copy);

    // 0.0 for -0.0, or another NaN payload, is another bundle.
    PerfCounters positive_zero = c;
    positive_zero.launchSec = 0.0;
    EXPECT_FALSE(c == positive_zero);
    PerfCounters other_nan = c;
    other_nan.busySec = std::bit_cast<double>(
        std::bit_cast<uint64_t>(c.busySec) | 1);
    EXPECT_FALSE(c == other_nan);
}

TEST(Occupancy, SmallLaunchUnderutilizes)
{
    GpuConfig cfg = GpuConfig::config1();
    KernelDesc tiny = makeElementwise(KernelStem("tiny"), 64.0, 1.0, 1.0, 1.0);
    Occupancy occ = computeOccupancy(tiny, cfg);
    EXPECT_LT(occ.utilization, 0.05);
    EXPECT_LE(occ.activeCus, 1.0);
}

TEST(Occupancy, HugeLaunchSaturates)
{
    GpuConfig cfg = GpuConfig::config1();
    KernelDesc big = makeElementwise(KernelStem("big"), 1e8, 1.0, 1.0, 1.0);
    Occupancy occ = computeOccupancy(big, cfg);
    EXPECT_DOUBLE_EQ(occ.utilization, 1.0);
    EXPECT_DOUBLE_EQ(occ.activeCus, 64.0);
}

TEST(Occupancy, FewerCusRaiseUtilizationOfMediumLaunch)
{
    KernelDesc k = skinnyGemm();
    Occupancy o64 = computeOccupancy(k, GpuConfig::config1());
    Occupancy o16 = computeOccupancy(k, GpuConfig::config3());
    EXPECT_GT(o16.utilization, o64.utilization);
}

TEST(ComputeModel, GemmFasterPerFlopThanElementwise)
{
    GpuConfig cfg = GpuConfig::config1();
    KernelDesc g = bigGemm();
    KernelDesc e = makeElementwise(KernelStem("e"), 1e8, 1.0, 1.0, 1.0);
    // Normalise: time per FLOP.
    ComputeEstimate ge = estimateCompute(g, computeOccupancy(g, cfg),
                                         cfg);
    ComputeEstimate ee = estimateCompute(e, computeOccupancy(e, cfg),
                                         cfg);
    EXPECT_LT(ge.timeSec / g.flops, ee.timeSec / e.flops);
}

TEST(ComputeModel, ValuInstsScaleWithFlops)
{
    GpuConfig cfg = GpuConfig::config1();
    KernelDesc a = makeElementwise(KernelStem("a"), 1e6, 2.0, 1.0, 1.0);
    KernelDesc b = makeElementwise(KernelStem("b"), 2e6, 2.0, 1.0, 1.0);
    ComputeEstimate ea = estimateCompute(a, computeOccupancy(a, cfg),
                                         cfg);
    ComputeEstimate eb = estimateCompute(b, computeOccupancy(b, cfg),
                                         cfg);
    EXPECT_NEAR(eb.valuInsts / ea.valuInsts, 2.0, 1e-9);
}

TEST(DramModel, GatherSlowerThanStream)
{
    GpuConfig cfg = GpuConfig::config1();
    EXPECT_LT(effectiveDramBandwidth(KernelClass::Embedding, cfg),
              effectiveDramBandwidth(KernelClass::Gemm, cfg));
}

TEST(DramModel, WriteStallOnlyBeyondOverlap)
{
    GpuConfig cfg = GpuConfig::config1();
    // Tiny write, long overlap: no stall.
    DramService s1 = serviceDram(KernelClass::Gemm, 0.0, 1e3, 1.0, cfg);
    EXPECT_DOUBLE_EQ(s1.writeStallSec, 0.0);
    // Huge write, no overlap: stall equals drain time.
    DramService s2 = serviceDram(KernelClass::Gemm, 0.0, 1e9, 0.0, cfg);
    EXPECT_GT(s2.writeStallSec, 0.0);
    EXPECT_NEAR(s2.writeStallSec, s2.writeTimeSec, 1e-12);
}

TEST(Timing, HigherClockNeverSlower)
{
    for (const KernelDesc &k : {bigGemm(), skinnyGemm(),
             makeElementwise(KernelStem("e"), 1e6, 2.0, 2.0, 1.0),
             makeReduction(KernelStem("r"), 1e6)}) {
        KernelTiming fast = timeKernel(k, GpuConfig::config1());
        KernelTiming slow = timeKernel(k, GpuConfig::config2());
        EXPECT_LE(fast.timeSec, slow.timeSec) << k.name();
    }
}

TEST(Timing, MoreCusNeverSlower)
{
    for (const KernelDesc &k : {bigGemm(), skinnyGemm(),
             makeReduction(KernelStem("r"), 1e7)}) {
        KernelTiming big = timeKernel(k, GpuConfig::config1());
        KernelTiming small = timeKernel(k, GpuConfig::config3());
        EXPECT_LE(big.timeSec, small.timeSec) << k.name();
    }
}

TEST(Timing, CachesNeverHurt)
{
    for (const KernelDesc &k : {bigGemm(), skinnyGemm(),
             makeElementwise(KernelStem("e"), 1e7, 2.0, 2.0, 1.0)}) {
        KernelTiming base = timeKernel(k, GpuConfig::config1());
        KernelTiming no_l1 = timeKernel(k, GpuConfig::config4());
        KernelTiming no_l2 = timeKernel(k, GpuConfig::config5());
        EXPECT_LE(base.timeSec, no_l1.timeSec) << k.name();
        EXPECT_LE(base.timeSec, no_l2.timeSec) << k.name();
    }
}

TEST(Timing, BigGemmScalesWithCusMoreThanSkinny)
{
    KernelDesc big = bigGemm();
    KernelDesc skinny = skinnyGemm();
    double big_ratio = timeKernel(big, GpuConfig::config3()).timeSec /
        timeKernel(big, GpuConfig::config1()).timeSec;
    double skinny_ratio =
        timeKernel(skinny, GpuConfig::config3()).timeSec /
        timeKernel(skinny, GpuConfig::config1()).timeSec;
    EXPECT_GT(big_ratio, skinny_ratio);
}

TEST(Timing, LaunchOverheadIsFloor)
{
    GpuConfig cfg = GpuConfig::config1();
    KernelDesc tiny = nn::makeScalarOp(KernelStem("nop"));
    KernelTiming kt = timeKernel(tiny, cfg);
    EXPECT_GE(kt.timeSec, cfg.launchOverheadSec);
}

TEST(Gpu, RepeatScalesTimeAndCounters)
{
    Gpu gpu(GpuConfig::config1());
    KernelDesc k = makeElementwise(KernelStem("e"), 1e5, 2.0, 2.0, 1.0);
    KernelRecord once = gpu.execute(k);
    k.repeat = 10;
    KernelRecord ten = gpu.execute(k);
    EXPECT_NEAR(ten.timeSec, 10.0 * once.timeSec, 1e-12);
    EXPECT_NEAR(ten.counters.valuInsts, 10.0 * once.counters.valuInsts,
                1e-6);
    EXPECT_EQ(ten.launches, 10u);
}

TEST(Gpu, ExecuteAllAggregates)
{
    Gpu gpu(GpuConfig::config1());
    std::vector<KernelDesc> ks{
        makeElementwise(KernelStem("a"), 1e5, 1.0, 1.0, 1.0),
        makeReduction(KernelStem("b"), 1e5)};
    ExecutionResult res = gpu.executeAll(ks, true);
    EXPECT_EQ(res.records.size(), 2u);
    EXPECT_NEAR(res.totalSec,
                res.records[0].timeSec + res.records[1].timeSec, 1e-15);
    EXPECT_DOUBLE_EQ(res.counters.kernelsLaunched, 2.0);
}

TEST(GpuConfig, Table2MatchesPaper)
{
    auto cfgs = GpuConfig::table2();
    ASSERT_EQ(cfgs.size(), 5u);
    EXPECT_DOUBLE_EQ(cfgs[0].gclkHz, ghz(1.6));
    EXPECT_EQ(cfgs[0].numCus, 64u);
    EXPECT_EQ(cfgs[0].l1SizeBytes, kib(16));
    EXPECT_EQ(cfgs[0].l2SizeBytes, mib(4));
    EXPECT_DOUBLE_EQ(cfgs[1].gclkHz, mhz(852));
    EXPECT_EQ(cfgs[2].numCus, 16u);
    EXPECT_EQ(cfgs[3].l1SizeBytes, 0u);
    EXPECT_EQ(cfgs[4].l2SizeBytes, 0u);
}

TEST(GpuConfig, PeakFlopsVega64)
{
    // 64 CU x 4 SIMD x 16 lanes x 2 x 1.6 GHz ~ 13.1 TFLOP/s.
    EXPECT_NEAR(GpuConfig::config1().peakFlops(), 13.1e12, 0.1e12);
}

TEST(Counters, AdditionAndScaling)
{
    PerfCounters a;
    a.valuInsts = 10;
    a.busySec = 1.0;
    PerfCounters b;
    b.valuInsts = 5;
    b.busySec = 0.5;
    PerfCounters c = a + b;
    EXPECT_DOUBLE_EQ(c.valuInsts, 15.0);
    c *= 2.0;
    EXPECT_DOUBLE_EQ(c.busySec, 3.0);
    EXPECT_FALSE(c.summary().empty());
}

} // anonymous namespace
} // namespace sim
} // namespace seqpoint
