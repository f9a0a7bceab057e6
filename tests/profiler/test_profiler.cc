/**
 * @file
 * Tests for the profiler, profile comparison and epoch trainer.
 */

#include <gtest/gtest.h>

#include <memory>
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
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = models::buildDs2();
    std::vector<int64_t> sls;
    for (int64_t sl = 40; sl <= 440; sl += 8)
        sls.push_back(sl);
    nn::Autotuner ref_tuner(nn::Autotuner::Mode::Heuristic);
    Profiler ref(gpu, model, ref_tuner, 64);
    ref.warmTrainProfiles(sls, 1);

    // The programs are lowered now, so a sweep is mostly op timing and
    // deadlines spread over one sweep's length land inside it.
    double full = CancelToken::now();
    {
        nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
        Profiler p(gpu, model, tuner, 64);
        p.warmTrainProfiles(sls, 1);
    }
    full = CancelToken::now() - full;

    unsigned cancelled = 0;
    for (int k = 0; k <= 8; ++k) {
        SCOPED_TRACE(k);
        nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
        Profiler p(gpu, model, tuner, 64);
        {
            CancelToken token;
            token.armAfter(full * k / 8);
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
    EXPECT_GT(log.autotuneSec, 0.0); // Measured autotune by default
    EXPECT_DOUBLE_EQ(log.totalSec(), log.trainSec + log.evalSec);
    EXPECT_DOUBLE_EQ(log.totalSec(true),
                     log.trainSec + log.evalSec + log.autotuneSec);
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

} // anonymous namespace
} // namespace prof
} // namespace seqpoint
