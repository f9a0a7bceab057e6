/**
 * @file
 * Determinism tests for the parallel profiling sweep: the parallel,
 * memoized engine must produce byte-identical logs and profiles to
 * the serial path and to an unmemoized, uncached reference, also when
 * profilers on several devices share one model concurrently.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>

#include "nn/layers/fully_connected.hh"
#include "nn/layers/recurrent.hh"
#include "nn/layers/softmax_loss.hh"
#include "profiler/profiler.hh"
#include "profiler/trainer.hh"
#include "reference_epoch.hh"

namespace seqpoint {
namespace prof {
namespace {

nn::Model
smallRnn()
{
    nn::Model m("small");
    m.add(std::make_unique<nn::RecurrentLayer>(
        "rnn", nn::CellType::Gru, 128, 128, false,
        nn::TimeAxis::Source));
    m.add(std::make_unique<nn::FullyConnectedLayer>(
        "fc", 128, 32, nn::TimeAxis::Source));
    m.add(std::make_unique<nn::SoftmaxLossLayer>(
        "loss", 32, nn::TimeAxis::Source));
    return m;
}

data::Dataset
smallDataset()
{
    data::Dataset ds;
    ds.name = "tiny";
    Rng rng(4);
    for (int i = 0; i < 1280; ++i)
        ds.trainLens.push_back(rng.uniformInt(10, 100));
    for (int i = 0; i < 128; ++i)
        ds.evalLens.push_back(rng.uniformInt(10, 100));
    return ds;
}

void
expectLogsBitIdentical(const TrainLog &a, const TrainLog &b)
{
    EXPECT_TRUE(a.identicalTo(b));
    EXPECT_EQ(a.autotuneSec, b.autotuneSec);
}

TEST(ParallelSweep, EpochLogBitIdenticalToSerial)
{
    nn::Model model = smallRnn();
    data::Dataset ds = smallDataset();

    TrainConfig serial;
    sim::Gpu gpu_serial(sim::GpuConfig::config1());
    TrainLog base = runTrainingEpoch(gpu_serial, model, ds, serial);

    TrainConfig parallel = serial;
    parallel.profileThreads = 4;
    sim::Gpu gpu_parallel(sim::GpuConfig::config1());
    TrainLog par = runTrainingEpoch(gpu_parallel, model, ds, parallel);

    expectLogsBitIdentical(base, par);
}

TEST(ParallelSweep, UncachedBaselineBitIdenticalToMemoized)
{
    // The per-SL memo and the op-id timing table change nothing but
    // the time it takes: the reference re-lowers every batch and
    // executes it through the timing cache of a fresh device. The
    // memoized epoch times each op straight from the timing model and
    // never looks the device's cache up.
    nn::Model model = smallRnn();
    data::Dataset ds = smallDataset();

    TrainConfig memo;
    sim::Gpu gpu_memo(sim::GpuConfig::config1());
    TrainLog a = runTrainingEpoch(gpu_memo, model, ds, memo);

    TrainLog b = unmemoizedEpoch(model, ds, memo,
                                 sim::GpuConfig::config1());

    EXPECT_EQ(gpu_memo.timingCacheStats().lookups(), 0u);
    expectLogsBitIdentical(a, b);
}

TEST(ParallelSweep, WarmedProfilesMatchOnDemandProfiles)
{
    nn::Model model = smallRnn();

    sim::Gpu gpu_a(sim::GpuConfig::config1());
    nn::Autotuner tuner_a(nn::Autotuner::Mode::Heuristic);
    Profiler warmed(gpu_a, model, tuner_a, 64);

    sim::Gpu gpu_b(sim::GpuConfig::config1());
    nn::Autotuner tuner_b(nn::Autotuner::Mode::Heuristic);
    Profiler lazy(gpu_b, model, tuner_b, 64);

    std::vector<int64_t> sls{40, 10, 70, 40, 10, 25};
    warmed.warmTrainProfiles(sls, 4);
    EXPECT_EQ(warmed.cacheSize(), 4u); // unique SLs only

    for (int64_t sl : {10, 25, 40, 70}) {
        const IterationProfile &w = warmed.profileIteration(sl);
        const IterationProfile &l = lazy.profileIteration(sl);
        EXPECT_EQ(w.timeSec, l.timeSec);
        EXPECT_EQ(w.launches, l.launches);
        EXPECT_EQ(w.counters.dramBytes, l.counters.dramBytes);
    }
    // Warming is idempotent: everything is already cached.
    warmed.warmTrainProfiles(sls, 4);
    EXPECT_EQ(warmed.cacheSize(), 4u);
}

void
expectProfilesBitIdentical(const std::map<int64_t, IterationProfile> &a,
                           const std::map<int64_t, IterationProfile> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[sl, p] : a) {
        const IterationProfile &q = b.at(sl);
        EXPECT_EQ(p.seqLen, q.seqLen);
        EXPECT_EQ(p.timeSec, q.timeSec) << "SL " << sl;
        EXPECT_EQ(p.launches, q.launches) << "SL " << sl;
        EXPECT_TRUE(p.counters == q.counters) << "SL " << sl;
        EXPECT_EQ(p.classTimeSec, q.classTimeSec) << "SL " << sl;
    }
}

/** A device, its Measured tuner and a profiler of one model on it. */
struct DeviceRun {
    sim::Gpu gpu;
    nn::Autotuner tuner;
    Profiler profiler;

    DeviceRun(const sim::GpuConfig &cfg, const nn::Model &model)
        : gpu(cfg), tuner(nn::Autotuner::Mode::Measured, &gpu),
          profiler(gpu, model, tuner, 64)
    {
    }
};

TEST(ParallelSweep, ProfilersOnTwoDevicesShareOneModelConcurrently)
{
    // The profilers warm disjoint, interleaved SL slices in rounds, so
    // while one interns the programs of its next slice the other
    // copies, resolves and folds ops the first interned: lowering,
    // interning, op copies and folds of the two run against each
    // other. Every profile must equal a profiler that had a model to
    // itself.
    nn::Model shared = smallRnn();
    constexpr int kRounds = 6;
    constexpr int kSlice = 8;
    auto slice = [](int side, int round) {
        std::vector<int64_t> sls;
        for (int j = 0; j < kSlice; ++j)
            sls.push_back(1 + side + 2 * (kSlice * round + j));
        return sls;
    };
    auto warm = [&slice](DeviceRun &run, int side, unsigned threads) {
        for (int round = 0; round < kRounds; ++round) {
            run.profiler.warmTrainProfiles(slice(side, round), threads);
            run.profiler.warmInferProfiles(slice(side, round), threads);
        }
    };

    const sim::GpuConfig cfgs[2] = {sim::GpuConfig::config1(),
                                    sim::GpuConfig::config4()};
    DeviceRun a(cfgs[0], shared), b(cfgs[1], shared);
    std::thread ta(warm, std::ref(a), 0, 2u), tb(warm, std::ref(b), 1, 2u);
    ta.join();
    tb.join();

    DeviceRun *runs[2] = {&a, &b};
    for (int i = 0; i < 2; ++i) {
        nn::Model own = smallRnn();
        DeviceRun alone(cfgs[i], own);
        warm(alone, i, 1);
        expectProfilesBitIdentical(runs[i]->profiler.trainProfileSnapshot(),
                                   alone.profiler.trainProfileSnapshot());
        expectProfilesBitIdentical(runs[i]->profiler.inferProfileSnapshot(),
                                   alone.profiler.inferProfileSnapshot());
        EXPECT_EQ(runs[i]->tuner.tuningCostSec(),
                  alone.tuner.tuningCostSec());
        EXPECT_EQ(runs[i]->gpu.uniqueKernelsTimed(),
                  alone.gpu.uniqueKernelsTimed());
    }
}

} // anonymous namespace
} // namespace prof
} // namespace seqpoint
