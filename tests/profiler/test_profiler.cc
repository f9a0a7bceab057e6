/**
 * @file
 * Tests for the profiler, profile comparison and epoch trainer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "common/stats_math.hh"
#include "models/ds2.hh"
#include "nn/layers/fully_connected.hh"
#include "nn/layers/recurrent.hh"
#include "nn/layers/softmax_loss.hh"
#include "profiler/profile_compare.hh"
#include "profiler/profiler.hh"
#include "profiler/trainer.hh"

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

struct ProfFixture {
    sim::Gpu gpu{sim::GpuConfig::config1()};
    nn::Model model = smallRnn();
    nn::Autotuner tuner{nn::Autotuner::Mode::Heuristic};
    Profiler profiler{gpu, model, tuner, 64};
};

TEST(Profiler, MemoizesBySeqLen)
{
    ProfFixture f;
    const IterationProfile &a = f.profiler.profileIteration(50);
    const IterationProfile &b = f.profiler.profileIteration(50);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(f.profiler.cacheSize(), 1u);
}

TEST(Profiler, RuntimeGrowsWithSeqLen)
{
    ProfFixture f;
    double prev = 0.0;
    for (int64_t sl : {10, 20, 40, 80, 160}) {
        double t = f.profiler.profileIteration(sl).timeSec;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(Profiler, RuntimeNearLinearInSl)
{
    // Paper Fig 9: runtime vs SL is near-linear.
    ProfFixture f;
    std::vector<double> xs, ys;
    for (int64_t sl = 20; sl <= 300; sl += 20) {
        xs.push_back(static_cast<double>(sl));
        ys.push_back(f.profiler.profileIteration(sl).timeSec);
    }
    LinearFit fit = fitLine(xs, ys);
    EXPECT_GT(fit.r2, 0.98);
    EXPECT_GT(fit.slope, 0.0);
}

TEST(Profiler, InferenceCheaperThanTraining)
{
    ProfFixture f;
    EXPECT_LT(f.profiler.profileInference(64).timeSec,
              f.profiler.profileIteration(64).timeSec);
}

TEST(Profiler, DetailedMatchesAggregate)
{
    ProfFixture f;
    DetailedProfile d = f.profiler.profileIterationDetailed(33);
    const IterationProfile &p = f.profiler.profileIteration(33);
    EXPECT_EQ(d.timeSec, p.timeSec);
    EXPECT_EQ(d.launches, p.launches);
    // Kernel-level times sum to the total.
    double sum = 0.0;
    for (const auto &[name, t] : d.timeByKernel)
        sum += t;
    EXPECT_NEAR(sum, d.timeSec, 1e-9);
}

TEST(Profiler, ClassSharesSumToOne)
{
    ProfFixture f;
    auto shares = f.profiler.profileIteration(40).classShares();
    double total = 0.0;
    for (double s : shares)
        total += s;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Profiler, CancelledSweepResumesBitIdentically)
{
    // A deadline firing part-way through a sweep leaves some ops timed
    // and the rest not; the next sweep must time exactly the rest and
    // fold what an uninterrupted profiler folds.
    std::vector<int64_t> sls;
    for (int64_t sl = 40; sl <= 440; sl += 8)
        sls.push_back(sl);
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = models::buildDs2();
    nn::Autotuner ref_tuner(nn::Autotuner::Mode::Measured, &gpu);
    Profiler ref(gpu, model, ref_tuner, 64);
    ref.warmTrainProfiles(sls, 1);

    // Every later profiler runs on config1 under a name of its own:
    // the same timings, but a table no other profiler has filled, so
    // a sweep is mostly probing and timing ops (the programs are
    // lowered now) and deadlines spread over one sweep's length land
    // inside the fill and the remembering of the ops.
    auto renamed = [](int k) {
        sim::GpuConfig cfg = sim::GpuConfig::config1();
        cfg.name += "-cancelled-sweep-" + std::to_string(k);
        return cfg;
    };
    double full = 0.0;
    {
        sim::Gpu g(renamed(-1));
        nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &g);
        Profiler p(g, model, tuner, 64);
        full = CancelToken::now();
        p.warmTrainProfiles(sls, 1);
        full = CancelToken::now() - full;
    }

    constexpr int kDeadlines = 32;
    unsigned cancelled = 0;
    for (int k = 0; k <= kDeadlines; ++k) {
        SCOPED_TRACE(k);
        sim::Gpu g(renamed(k));
        nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &g);
        Profiler p(g, model, tuner, 64);
        {
            CancelToken token;
            token.armAfter(full * k / kDeadlines);
            CancelScope scope(&token);
            try {
                p.warmTrainProfiles(sls, 1);
            } catch (const CancelledError &) {
                ++cancelled;
            }
        }
        p.warmTrainProfiles(sls, 1);
        for (int64_t sl : sls) {
            const IterationProfile &got = p.profileIteration(sl);
            const IterationProfile &want = ref.profileIteration(sl);
            EXPECT_EQ(got.timeSec, want.timeSec);
            EXPECT_EQ(got.launches, want.launches);
            EXPECT_TRUE(got.classTimeSec == want.classTimeSec);
        }
    }
    EXPECT_GT(cancelled, 0u);
}

TEST(ProfilerDeath, MeasuredTunerOnAnotherConfigurationPanics)
{
    // The network's table for the profiler's configuration tunes for
    // that configuration, so a Measured tuner must be bound to it.
    sim::Gpu gpu(sim::GpuConfig::config1());
    sim::Gpu other(sim::GpuConfig::config2());
    nn::Model model = smallRnn();
    nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &other);
    EXPECT_DEATH(Profiler(gpu, model, tuner, 64), "different configuration");

    // A Heuristic tuner picks tiles from the shape alone.
    nn::Autotuner heuristic(nn::Autotuner::Mode::Heuristic);
    Profiler p(gpu, model, heuristic, 64);
    EXPECT_GT(p.profileIteration(30).timeSec, 0.0);
}

TEST(ProfileCompare, IdenticalProfilesFullyOverlap)
{
    ProfFixture f;
    DetailedProfile a = f.profiler.profileIterationDetailed(60);
    KernelOverlap ov = compareUniqueKernels(a, a);
    EXPECT_EQ(ov.only1, 0u);
    EXPECT_EQ(ov.only2, 0u);
    EXPECT_DOUBLE_EQ(ov.fracCommon(), 1.0);
}

TEST(ProfileCompare, NearbySlsMoreSimilarThanFar)
{
    // Paper Fig 8: close SLs have close execution profiles.
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = models::buildDs2();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    Profiler profiler(gpu, model, tuner, 64);

    DetailedProfile p87 = profiler.profileIterationDetailed(87);
    DetailedProfile p89 = profiler.profileIterationDetailed(89);
    DetailedProfile p397 = profiler.profileIterationDetailed(397);

    EXPECT_LE(classShareDistance(p87, p89),
              classShareDistance(p87, p397));
    KernelOverlap near = compareUniqueKernels(p87, p89);
    KernelOverlap far = compareUniqueKernels(p87, p397);
    EXPECT_GE(near.fracCommon(), far.fracCommon());
}

TEST(Trainer, EpochLogAccounting)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = smallRnn();

    data::Dataset ds;
    ds.name = "tiny";
    Rng rng(4);
    for (int i = 0; i < 640; ++i)
        ds.trainLens.push_back(rng.uniformInt(10, 100));
    for (int i = 0; i < 128; ++i)
        ds.evalLens.push_back(rng.uniformInt(10, 100));

    TrainConfig tc;
    tc.batchSize = 64;
    tc.policy = data::BatchPolicy::Shuffled;
    TrainLog log = runTrainingEpoch(gpu, model, ds, tc);

    EXPECT_EQ(log.numIterations(), 10u);
    double sum = 0.0;
    for (const auto &it : log.iterations)
        sum += it.timeSec;
    EXPECT_NEAR(sum, log.trainSec, 1e-9);
    EXPECT_GT(log.evalSec, 0.0);
    EXPECT_DOUBLE_EQ(log.totalSec(), log.trainSec + log.evalSec);
    EXPECT_NEAR(log.throughput(64), 640.0 / log.trainSec, 1e-9);
}

TEST(Trainer, EvalCostMultiplierScalesEval)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = smallRnn();

    data::Dataset ds;
    Rng rng(4);
    for (int i = 0; i < 320; ++i)
        ds.trainLens.push_back(rng.uniformInt(10, 100));
    for (int i = 0; i < 128; ++i)
        ds.evalLens.push_back(rng.uniformInt(10, 100));

    TrainConfig tc;
    TrainLog base = runTrainingEpoch(gpu, model, ds, tc);
    tc.evalCostMultiplier = 3.0;
    TrainLog beam = runTrainingEpoch(gpu, model, ds, tc);
    EXPECT_NEAR(beam.evalSec, 3.0 * base.evalSec, 1e-9);
    EXPECT_NEAR(beam.trainSec, base.trainSec, 1e-9);
}

TEST(Trainer, SortedPolicyYieldsMonotoneIterationSls)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = smallRnn();

    data::Dataset ds;
    Rng rng(4);
    for (int i = 0; i < 640; ++i)
        ds.trainLens.push_back(rng.uniformInt(10, 200));

    TrainConfig tc;
    tc.policy = data::BatchPolicy::SortedBySl;
    tc.runEval = false;
    TrainLog log = runTrainingEpoch(gpu, model, ds, tc);
    for (size_t i = 1; i < log.iterations.size(); ++i)
        EXPECT_GE(log.iterations[i].seqLen,
                  log.iterations[i - 1].seqLen);
}

TEST(Trainer, SameSlIterationsHaveSameTime)
{
    // Paper observation 4: behaviour is a pure function of SL.
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = smallRnn();

    data::Dataset ds;
    ds.trainLens.assign(256, 77); // all identical
    TrainConfig tc;
    tc.runEval = false;
    TrainLog log = runTrainingEpoch(gpu, model, ds, tc);
    ASSERT_EQ(log.numIterations(), 4u);
    for (const auto &it : log.iterations) {
        EXPECT_EQ(it.seqLen, 77);
        EXPECT_DOUBLE_EQ(it.timeSec, log.iterations[0].timeSec);
    }
}

TEST(Trainer, IdenticalToComparesBitPatterns)
{
    TrainLog log;
    log.iterations = {{40, 0.25}, {41, std::nan("")}};
    log.trainSec = 1.5;
    log.evalSec = std::nan("");
    log.counters.busySec = std::nan("");
    TrainLog copy = log;
    EXPECT_TRUE(log.identicalTo(copy));

    // Another NaN payload, or -0.0 for 0.0, is a different log.
    TrainLog other_nan = log;
    other_nan.evalSec = std::bit_cast<double>(
        std::bit_cast<uint64_t>(log.evalSec) | 1);
    EXPECT_FALSE(log.identicalTo(other_nan));
    TrainLog zero = log, negative_zero = log;
    zero.iterations[0].timeSec = 0.0;
    negative_zero.iterations[0].timeSec = -0.0;
    EXPECT_FALSE(zero.identicalTo(negative_zero));
    TrainLog longer = log;
    longer.iterations.push_back({42, 0.5});
    EXPECT_FALSE(log.identicalTo(longer));
}

} // anonymous namespace
} // namespace prof
} // namespace seqpoint
