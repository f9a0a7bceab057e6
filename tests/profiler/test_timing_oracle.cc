/**
 * @file
 * Cross-path timing oracle. The profiler folds programs out of the
 * network's shared op-id table, where each op is timed once per
 * configuration straight from the timing model; Gpu::executeAll()
 * looks every launch up in the
 * device's signature-keyed timing cache. Both must give the same
 * iteration, bit for bit, on every Table II configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "harness/workloads.hh"
#include "profiler/profiler.hh"

namespace seqpoint {
namespace prof {
namespace {

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** The smallest, median and largest training SL of a dataset. */
std::vector<int64_t>
probeSls(const data::Dataset &ds)
{
    std::vector<int64_t> lens = ds.trainLens;
    std::sort(lens.begin(), lens.end());
    return {lens.front(), lens[lens.size() / 2], lens.back()};
}

/** Lower on a fresh tuner and execute on a fresh device. */
sim::ExecutionResult
executedOnFreshDevice(const nn::Model &model, const sim::GpuConfig &cfg,
                      unsigned batch, int64_t seq_len, bool train)
{
    sim::Gpu gpu(cfg);
    nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &gpu);
    std::vector<sim::KernelDesc> kernels = train
        ? model.lowerIteration(batch, seq_len, tuner)
        : model.lowerInference(batch, seq_len, tuner);
    return gpu.executeAll(kernels);
}

void
expectSameIteration(const IterationProfile &p,
                    const sim::ExecutionResult &want)
{
    EXPECT_EQ(bits(p.timeSec), bits(want.totalSec));
    EXPECT_EQ(p.launches, want.launches);
    EXPECT_TRUE(p.counters == want.counters);
    for (unsigned k = 0; k < sim::numKernelClasses; ++k)
        EXPECT_EQ(bits(p.classTimeSec[k]), bits(want.classSec[k]))
            << "class " << k;
}

void
checkWorkload(const harness::Workload &wl)
{
    const std::vector<int64_t> sls = probeSls(wl.dataset);
    for (const sim::GpuConfig &cfg : sim::GpuConfig::table2()) {
        sim::Gpu gpu(cfg);
        nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &gpu);
        Profiler profiler(gpu, wl.model, tuner, wl.batchSize);
        for (int64_t sl : sls) {
            SCOPED_TRACE(wl.name + " " + cfg.name + " SL " +
                         std::to_string(sl));
            expectSameIteration(
                profiler.profileIteration(sl),
                executedOnFreshDevice(wl.model, cfg, wl.batchSize, sl,
                                      /*train=*/true));
            expectSameIteration(
                profiler.profileInference(sl),
                executedOnFreshDevice(wl.model, cfg, wl.batchSize, sl,
                                      /*train=*/false));
        }
        // The profiler never went through the device's cache.
        EXPECT_EQ(gpu.timingCacheStats().lookups(), 0u);
    }
}

TEST(TimingOracle, GnmtProfilerMatchesExecuteAll)
{
    checkWorkload(harness::makeGnmtWorkload(23));
}

TEST(TimingOracle, Ds2ProfilerMatchesExecuteAll)
{
    checkWorkload(harness::makeDs2Workload(23));
}

} // anonymous namespace
} // namespace prof
} // namespace seqpoint
