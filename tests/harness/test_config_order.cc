/**
 * @file
 * Cross-configuration order independence. A model lowers each
 * iteration once and every configuration an Experiment profiles
 * reuses those programs, so adding a configuration -- in any order,
 * with projections interleaved, at any sweep width -- must change no
 * other configuration's answer. And a profile folded from shared
 * programs must equal executing the model's lowered kernels on a
 * fresh device, the public path outside the profiler.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/snapshot_io.hh"
#include "models/cnn.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "models/transformer.hh"
#include "nn/autotune.hh"
#include "profiler/profiler.hh"
#include "sim/gpu.hh"

namespace seqpoint {
namespace harness {
namespace {

constexpr uint64_t kSeed = 5;

/** SLs probed through iterProfile(), in and out of the epoch. */
const std::vector<int64_t> kProbeSls = {7, 23, 61, 150, 333};

void
expectSameProfile(const prof::IterationProfile &a,
                  const prof::IterationProfile &b, const std::string &where)
{
    EXPECT_EQ(a.seqLen, b.seqLen) << where;
    EXPECT_EQ(a.timeSec, b.timeSec) << where;
    EXPECT_EQ(a.launches, b.launches) << where;
    EXPECT_TRUE(a.counters == b.counters) << where;
    EXPECT_EQ(a.classTimeSec, b.classTimeSec) << where;
}

/** What one configuration's state answers. */
struct ConfigAnswer {
    prof::TrainLog log;
    std::string payload;
    std::vector<prof::IterationProfile> probes;
};

/**
 * Read a configuration's answer out of an experiment: the epoch log,
 * the snapshot payload (taken before the probes, which may add SLs to
 * the memo), then the probe profiles.
 */
ConfigAnswer
answerOf(Experiment &exp, const sim::GpuConfig &cfg)
{
    ConfigAnswer a;
    a.log = exp.epochLog(cfg);
    a.payload = encodeSnapshotPayload(*exp.snapshot(cfg));
    for (int64_t sl : kProbeSls)
        a.probes.push_back(exp.iterProfile(cfg, sl));
    return a;
}

/** Each Table II configuration profiled alone in a fresh Experiment. */
const std::vector<ConfigAnswer> &
aloneAnswers()
{
    static const std::vector<ConfigAnswer> answers = [] {
        std::vector<ConfigAnswer> out;
        for (const sim::GpuConfig &cfg : sim::GpuConfig::table2()) {
            Experiment exp(makeGnmtWorkload(kSeed));
            exp.setProfileThreads(1);
            out.push_back(answerOf(exp, cfg));
        }
        return out;
    }();
    return answers;
}

void
expectMatchesAlone(Experiment &exp, const std::string &label)
{
    const std::vector<sim::GpuConfig> cfgs = sim::GpuConfig::table2();
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const std::string where = label + ", " + cfgs[c].name;
        ConfigAnswer got = answerOf(exp, cfgs[c]);
        const ConfigAnswer &want = aloneAnswers()[c];
        EXPECT_TRUE(got.log.identicalTo(want.log)) << where;
        EXPECT_TRUE(got.payload == want.payload) << where;
        for (std::size_t i = 0; i < kProbeSls.size(); ++i)
            expectSameProfile(got.probes[i], want.probes[i], where);
    }
}

/** Parameterised on the Experiment's profile-thread count. */
class ConfigOrder : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ConfigOrder, AscendingMatchesEachConfigAlone)
{
    Experiment exp(makeGnmtWorkload(kSeed));
    exp.setProfileThreads(GetParam());
    for (const sim::GpuConfig &cfg : sim::GpuConfig::table2())
        exp.epochLog(cfg);
    expectMatchesAlone(exp, "1->5");
}

TEST_P(ConfigOrder, DescendingMatchesEachConfigAlone)
{
    Experiment exp(makeGnmtWorkload(kSeed));
    exp.setProfileThreads(GetParam());
    std::vector<sim::GpuConfig> cfgs = sim::GpuConfig::table2();
    for (auto it = cfgs.rbegin(); it != cfgs.rend(); ++it)
        exp.epochLog(*it);
    expectMatchesAlone(exp, "5->1");
}

TEST_P(ConfigOrder, InterleavedWithProjectionsMatchesEachConfigAlone)
{
    // Config #1's SeqPoint selection is projected onto each config
    // right after that config's epoch, so later configs lower and
    // resolve while earlier ones are being queried.
    Experiment exp(makeGnmtWorkload(kSeed));
    exp.setProfileThreads(GetParam());
    std::vector<sim::GpuConfig> cfgs = sim::GpuConfig::table2();
    const core::SeqPointSet sel =
        exp.buildSelection(core::SelectorKind::SeqPoint, cfgs[0]);
    std::vector<double> projected;
    for (const sim::GpuConfig &cfg : cfgs) {
        exp.epochLog(cfg);
        projected.push_back(exp.projectedTrainSec(sel, cfg));
        exp.projectedTrainSec(sel, cfgs[0]);
    }
    expectMatchesAlone(exp, "interleaved");

    // The projections equal those made from each config's own epoch.
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const prof::TrainLog &alone = aloneAnswers()[c].log;
        std::map<int64_t, double> iter_sec;
        for (const prof::IterationLog &it : alone.iterations)
            iter_sec.emplace(it.seqLen, it.timeSec);
        EXPECT_EQ(projected[c],
                  core::projectTrainingTime(sel, [&](int64_t sl) {
                      return iter_sec.at(sl);
                  }))
            << cfgs[c].name;
    }
}

INSTANTIATE_TEST_SUITE_P(ProfileThreads, ConfigOrder,
                         ::testing::Values(1u, 4u));

/**
 * Every built-in model, profiled on all five configurations through
 * one shared model: each train and infer profile must equal
 * executing Model::lowerIteration()/lowerInference() on a fresh
 * device, field by field.
 */
TEST(SharedPrograms, ProfilesMatchExecuteAllOnEveryConfig)
{
    struct Case {
        const char *name;
        std::function<nn::Model()> build;
    };
    const Case cases[] = {
        {"GNMT", [] { return models::buildGnmt(); }},
        {"DS2", [] { return models::buildDs2(); }},
        {"CNN", [] { return models::buildCnn(); }},
        {"Transformer", [] { return models::buildTransformer(); }},
    };
    constexpr unsigned kBatch = 16;
    const std::vector<int64_t> sls = {1, 6, 29, 77, 160};

    for (const Case &c : cases) {
        nn::Model shared = c.build();
        nn::Model reference = c.build();
        for (const sim::GpuConfig &cfg : sim::GpuConfig::table2()) {
            sim::Gpu gpu(cfg);
            nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &gpu);
            prof::Profiler profiler(gpu, shared, tuner, kBatch);
            profiler.warmTrainProfiles(sls, 2);
            profiler.warmInferProfiles(sls, 2);

            sim::Gpu fresh(cfg);
            nn::Autotuner fresh_tuner(nn::Autotuner::Mode::Measured, &fresh);
            for (int64_t sl : sls) {
                const std::string where = std::string(c.name) + ", " +
                    cfg.name + ", SL " + std::to_string(sl);
                for (bool train : {true, false}) {
                    sim::ExecutionResult res = fresh.executeAll(train
                        ? reference.lowerIteration(kBatch, sl, fresh_tuner)
                        : reference.lowerInference(kBatch, sl,
                                                   fresh_tuner));
                    prof::IterationProfile want;
                    want.seqLen = sl;
                    want.timeSec = res.totalSec;
                    want.launches = res.launches;
                    want.counters = res.counters;
                    want.classTimeSec = res.classSec;
                    expectSameProfile(train
                                          ? profiler.profileIteration(sl)
                                          : profiler.profileInference(sl),
                                      want, where);
                }
            }
            EXPECT_EQ(tuner.tuningCostSec(), fresh_tuner.tuningCostSec())
                << c.name << ", " << cfg.name;
        }
    }
}

} // anonymous namespace
} // namespace harness
} // namespace seqpoint
