/**
 * @file
 * Tests for the unique-SL epoch-replay engine: the replayed log must
 * be bit-identical to profiling every batch in order, memoized or
 * not, the caller-owned profiler overload must reuse profiles across
 * epochs, and the records-free execution path must match the
 * record-keeping one.
 */

#include <gtest/gtest.h>

#include "harness/workloads.hh"
#include "profiler/trainer.hh"
#include "reference_epoch.hh"

namespace seqpoint {
namespace prof {
namespace {

/** Full bit-exact comparison of two epoch logs. */
void
expectLogsIdentical(const TrainLog &a, const TrainLog &b,
                    bool compare_autotune = true)
{
    EXPECT_TRUE(a.identicalTo(b));
    if (compare_autotune) {
        EXPECT_EQ(a.autotuneSec, b.autotuneSec);
    }
}

TrainConfig
gnmtConfig(const harness::Workload &wl)
{
    TrainConfig tc;
    tc.batchSize = wl.batchSize;
    tc.policy = wl.policy;
    tc.seed = wl.seed;
    tc.evalCostMultiplier = wl.evalCostMultiplier;
    return tc;
}

TEST(EpochReplay, ReplayBitIdenticalToPerIterationPath)
{
    harness::Workload wl = harness::makeGnmtWorkload(11);
    TrainConfig tc = gnmtConfig(wl);

    // Reference: walk the schedule in batch order through a memoizing
    // profiler, one profile per batch.
    sim::Gpu ref_gpu(sim::GpuConfig::config1());
    nn::Autotuner tuner(tc.tunerMode, &ref_gpu);
    Profiler profiler(ref_gpu, wl.model, tuner, wl.batchSize);
    TrainLog per_iter = referenceEpoch(
        wl.dataset, tc, tuner,
        [&](int64_t sl) { return profiler.profileIteration(sl); },
        [&](int64_t sl) { return profiler.profileInference(sl); });

    sim::Gpu gpu(sim::GpuConfig::config1());
    TrainLog replay = runTrainingEpoch(gpu, wl.model, wl.dataset, tc);

    expectLogsIdentical(per_iter, replay);
}

TEST(EpochReplay, ReplayBitIdenticalToUnmemoizedBaseline)
{
    harness::Workload wl = harness::makeDs2Workload(13);
    TrainConfig tc = gnmtConfig(wl);

    TrainLog baseline = unmemoizedEpoch(wl.model, wl.dataset, tc,
                                        sim::GpuConfig::config1());

    sim::Gpu gpu(sim::GpuConfig::config1());
    TrainLog replay = runTrainingEpoch(gpu, wl.model, wl.dataset, tc);

    expectLogsIdentical(baseline, replay);
}

TEST(EpochReplay, PersistentProfilerReusesProfilesAcrossEpochs)
{
    harness::Workload wl = harness::makeGnmtWorkload(17);
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &gpu);
    Profiler profiler(gpu, wl.model, tuner, wl.batchSize);
    TrainConfig tc = gnmtConfig(wl);

    TrainLog first = runTrainingEpoch(profiler, wl.dataset, tc);
    size_t profiles_after_first = profiler.cacheSize();
    EXPECT_GT(profiles_after_first, 0u);
    EXPECT_GT(first.autotuneSec, 0.0);

    // Same seed again: no new SLs, no new profiles, no new tuning --
    // and a log bit-identical to the fresh-profiler overload's.
    TrainLog second = runTrainingEpoch(profiler, wl.dataset, tc);
    EXPECT_EQ(profiler.cacheSize(), profiles_after_first);
    EXPECT_EQ(second.autotuneSec, 0.0);
    expectLogsIdentical(first, second, /*compare_autotune=*/false);

    TrainLog fresh = runTrainingEpoch(gpu, wl.model, wl.dataset, tc);
    expectLogsIdentical(fresh, second, /*compare_autotune=*/false);
}

TEST(EpochReplay, PersistentProfilerMatchesFreshAcrossSeeds)
{
    harness::Workload wl = harness::makeGnmtWorkload(19);
    sim::Gpu shared_gpu(sim::GpuConfig::config1());
    nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &shared_gpu);
    Profiler profiler(shared_gpu, wl.model, tuner, wl.batchSize);

    for (uint64_t seed = 19; seed < 22; ++seed) {
        TrainConfig tc = gnmtConfig(wl);
        tc.seed = seed;
        TrainLog persistent = runTrainingEpoch(profiler, wl.dataset, tc);

        sim::Gpu gpu(sim::GpuConfig::config1());
        TrainLog fresh = runTrainingEpoch(gpu, wl.model, wl.dataset, tc);
        expectLogsIdentical(fresh, persistent,
                            /*compare_autotune=*/false);
        // A persistent profiler never pays more tuning than a fresh
        // run; after the first epoch it pays none for repeated SLs.
        EXPECT_LE(persistent.autotuneSec, fresh.autotuneSec);
    }
}

TEST(EpochReplay, RecordsFreeExecutionMatchesRecordKeeping)
{
    harness::Workload wl = harness::makeGnmtWorkload(23);
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    auto kernels = wl.model.lowerIteration(wl.batchSize, 37, tuner);

    sim::ExecutionResult lean = gpu.executeAll(kernels, false);
    sim::ExecutionResult full = gpu.executeAll(kernels, true);

    EXPECT_TRUE(lean.records.empty());
    EXPECT_EQ(full.records.size(), kernels.size());
    EXPECT_EQ(lean.totalSec, full.totalSec);
    EXPECT_EQ(lean.launches, full.launches);
    EXPECT_EQ(lean.counters.kernelsLaunched,
              full.counters.kernelsLaunched);
    EXPECT_EQ(lean.counters.busySec, full.counters.busySec);
    EXPECT_EQ(lean.counters.dramBytes, full.counters.dramBytes);
    for (unsigned k = 0; k < sim::numKernelClasses; ++k)
        EXPECT_EQ(lean.classSec[k], full.classSec[k]) << "class " << k;
}

TEST(EpochReplayDeath, ProfilerConfigMismatchesRejected)
{
    harness::Workload wl = harness::makeGnmtWorkload();
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    Profiler profiler(gpu, wl.model, tuner, wl.batchSize);

    TrainConfig bad_batch = gnmtConfig(wl);
    bad_batch.batchSize = wl.batchSize + 1;
    EXPECT_DEATH(runTrainingEpoch(profiler, wl.dataset, bad_batch),
                 "batch");

    // The profiler's tuner is Heuristic; the config default asks for
    // Measured, which the profiler overload cannot honor.
    TrainConfig bad_mode = gnmtConfig(wl);
    EXPECT_DEATH(runTrainingEpoch(profiler, wl.dataset, bad_mode),
                 "autotuner-mode");
}

} // anonymous namespace
} // namespace prof
} // namespace seqpoint
