/**
 * @file
 * Integration tests: the full pipeline (dataset -> batching -> model
 * lowering -> GPU simulation -> profiling -> SeqPoint selection ->
 * cross-configuration projection), checking the paper's headline
 * claims hold qualitatively in this reproduction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/stats_math.hh"
#include "harness/experiment.hh"
#include "harness/snapshot_io.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"

namespace seqpoint {
namespace harness {
namespace {

using core::SelectorKind;

/** Shared, lazily built experiments (epoch runs are memoized). */
Experiment &
gnmtExp()
{
    static Experiment exp(makeGnmtWorkload());
    return exp;
}

Experiment &
ds2Exp()
{
    static Experiment exp(makeDs2Workload());
    return exp;
}

TEST(Workloads, FactoriesMatchPaperSetup)
{
    const Workload &g = gnmtExp().workload();
    EXPECT_EQ(g.name, "GNMT");
    EXPECT_EQ(g.batchSize, 64u);
    EXPECT_EQ(g.model.name(), "GNMT");

    const Workload &d = ds2Exp().workload();
    EXPECT_EQ(d.name, "DS2");
    EXPECT_EQ(d.policy, data::BatchPolicy::SortedBySl);
}

TEST(Experiment, EpochLogMemoized)
{
    auto cfg = sim::GpuConfig::config1();
    const prof::TrainLog &a = ds2Exp().epochLog(cfg);
    const prof::TrainLog &b = ds2Exp().epochLog(cfg);
    EXPECT_EQ(&a, &b);
}

TEST(Experiment, SameNameDifferentParamsDoNotAliasState)
{
    // Regression: per-config state used to key on the name alone, so
    // two configs sharing a name silently shared one ConfigState.
    Experiment exp(makeDs2Workload(29));
    sim::GpuConfig fast = sim::GpuConfig::config1();
    sim::GpuConfig slow = sim::GpuConfig::config2();
    slow.name = fast.name; // same name, half the clock

    EXPECT_FALSE(sim::sameEncodedConfig(fast, slow));

    double t_fast = exp.actualTrainSec(fast);
    double t_slow = exp.actualTrainSec(slow);
    EXPECT_GT(t_slow, t_fast * 1.2);

    // And the logs are distinct memo entries, not one shared state.
    EXPECT_NE(&exp.epochLog(fast), &exp.epochLog(slow));
}

TEST(Experiment, EveryConfigFieldResolvesItsOwnState)
{
    // States match bit for bit: a change to any one field (the name
    // included) is a new state, -0.0 and 0.0 are two states, and a
    // NaN field finds the state it made.
    Experiment exp(makeCnnWorkload());
    const sim::GpuConfig base = sim::GpuConfig::config1();
    std::vector<sim::GpuConfig> variants;
    auto vary = [&](auto mutate) {
        sim::GpuConfig c = base;
        mutate(c);
        variants.push_back(c);
    };
    vary([](sim::GpuConfig &c) { c.name = "config#1b"; });
    vary([](sim::GpuConfig &c) { c.gclkHz *= 1.25; });
    vary([](sim::GpuConfig &c) { c.numCus = 32; });
    vary([](sim::GpuConfig &c) { c.simdsPerCu = 2; });
    vary([](sim::GpuConfig &c) { c.lanesPerSimd = 32; });
    vary([](sim::GpuConfig &c) { c.maxWavesPerCu = 20; });
    vary([](sim::GpuConfig &c) { c.waveSize = 32; });
    vary([](sim::GpuConfig &c) { c.l1SizeBytes *= 2; });
    vary([](sim::GpuConfig &c) { c.l1Assoc = 8; });
    vary([](sim::GpuConfig &c) { c.l2SizeBytes *= 2; });
    vary([](sim::GpuConfig &c) { c.l2Assoc = 8; });
    vary([](sim::GpuConfig &c) { c.lineBytes = 128; });
    vary([](sim::GpuConfig &c) { c.l1BytesPerCycle *= 0.5; });
    vary([](sim::GpuConfig &c) { c.l2BytesPerCycle *= 0.5; });
    vary([](sim::GpuConfig &c) { c.dramBandwidth *= 1.25; });
    vary([](sim::GpuConfig &c) { c.dramEfficiency = 0.7; });
    vary([](sim::GpuConfig &c) { c.launchOverheadSec *= 2.0; });
    vary([](sim::GpuConfig &c) { c.writeDrainFraction = 0.6; });
    vary([](sim::GpuConfig &c) { c.launchOverheadSec = 0.0; });
    vary([](sim::GpuConfig &c) { c.launchOverheadSec = -0.0; });
    vary([](sim::GpuConfig &c) {
        c.writeDrainFraction = std::numeric_limits<double>::quiet_NaN();
    });

    const prof::TrainLog *base_log = &exp.epochLog(base);
    std::set<const prof::TrainLog *> logs{base_log};
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "variant " << i);
        const sim::GpuConfig &c = variants[i];
        const prof::TrainLog *log = &exp.epochLog(c);
        EXPECT_TRUE(logs.insert(log).second);
        EXPECT_EQ(&exp.epochLog(sim::GpuConfig(c)), log);
    }
    EXPECT_EQ(&exp.epochLog(base), base_log);
}

TEST(Experiment, SlStatsMemoizedAndEqualToRecompute)
{
    // Regression: buildAllSelections used to recompute slStats from
    // the full epoch log once per selector. The memoized stats must
    // be the same object across calls and equal a from-scratch
    // recompute.
    Experiment exp(makeDs2Workload(31));
    auto cfg = sim::GpuConfig::config1();
    const core::SlStats &a = exp.slStats(cfg);
    const core::SlStats &b = exp.slStats(cfg);
    EXPECT_EQ(&a, &b);

    core::SlStats fresh =
        core::SlStats::fromIterations(exp.epochSamples(cfg));
    ASSERT_EQ(a.uniqueCount(), fresh.uniqueCount());
    for (size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].seqLen, fresh.entries()[i].seqLen);
        EXPECT_EQ(a.entries()[i].freq, fresh.entries()[i].freq);
        EXPECT_EQ(a.entries()[i].statValue,
                  fresh.entries()[i].statValue);
    }
}

TEST(Experiment, SelectionsMemoizedAndEqualToRecompute)
{
    Experiment exp(makeDs2Workload(31));
    auto cfg = sim::GpuConfig::config1();
    for (core::SelectorKind kind :
         {SelectorKind::Worst, SelectorKind::Frequent,
          SelectorKind::Median, SelectorKind::Prior,
          SelectorKind::SeqPoint}) {
        const core::SeqPointSet &a = exp.buildSelection(kind, cfg);
        const core::SeqPointSet &b = exp.buildSelection(kind, cfg);
        EXPECT_EQ(&a, &b) << core::selectorName(kind);

        // The memoized set must equal what a fresh experiment
        // recomputes from scratch (bit-exact field-wise equality).
        Experiment fresh(makeDs2Workload(31));
        const core::SeqPointSet &r = fresh.buildSelection(kind, cfg);
        EXPECT_TRUE(a == r) << core::selectorName(kind);
    }
}

TEST(Experiment, EpochScaleMatchesPaperSetup)
{
    auto cfg = sim::GpuConfig::config1();
    // A few hundred iterations per epoch; unique SLs a large fraction
    // of them (paper: "up to half of all iterations" for DS2).
    const prof::TrainLog &d = ds2Exp().epochLog(cfg);
    EXPECT_GT(d.numIterations(), 400u);
    auto stats = ds2Exp().slStats(cfg);
    EXPECT_GT(stats.uniqueCount(), d.numIterations() / 3);

    const prof::TrainLog &g = gnmtExp().epochLog(cfg);
    EXPECT_GT(g.numIterations(), 400u);
}

TEST(Experiment, EvalPhaseIsFewPercent)
{
    // Paper section IV-C1: evaluation takes up to 2-3% of the run.
    auto cfg = sim::GpuConfig::config1();
    for (Experiment *exp : {&ds2Exp(), &gnmtExp()}) {
        const prof::TrainLog &log = exp->epochLog(cfg);
        double frac = log.evalSec / log.totalSec();
        EXPECT_GT(frac, 0.005);
        EXPECT_LT(frac, 0.06);
    }
}

TEST(Experiment, SeqPointCountsAreSmall)
{
    auto cfg1 = sim::GpuConfig::config1();
    auto sp_g = gnmtExp().buildSelection(SelectorKind::SeqPoint, cfg1);
    auto sp_d = ds2Exp().buildSelection(SelectorKind::SeqPoint, cfg1);
    // Paper: 15 (GNMT) and 8 (DS2). Ours land in the same regime,
    // with GNMT needing more points than DS2.
    EXPECT_GE(sp_g.points.size(), 10u);
    EXPECT_LE(sp_g.points.size(), 20u);
    EXPECT_GE(sp_d.points.size(), 4u);
    EXPECT_LE(sp_d.points.size(), 12u);
    EXPECT_GT(sp_g.points.size(), sp_d.points.size());
    EXPECT_TRUE(sp_g.converged);
    EXPECT_TRUE(sp_d.converged);
}

TEST(Experiment, SeqPointTimeProjectionAccurateOnAllConfigs)
{
    // Fig 11/12 headline: SeqPoints selected on config #1 project
    // training time accurately on every configuration.
    auto cfg1 = sim::GpuConfig::config1();
    for (Experiment *exp : {&ds2Exp(), &gnmtExp()}) {
        auto sp = exp->buildSelection(SelectorKind::SeqPoint, cfg1);
        for (const auto &cfg : sim::GpuConfig::table2()) {
            double err = core::timeErrorPercent(
                exp->projectedTrainSec(sp, cfg),
                exp->actualTrainSec(cfg));
            EXPECT_LT(err, 1.5) << exp->workload().name << " "
                                << cfg.name;
        }
    }
}

TEST(Experiment, SelectorErrorOrderingMatchesPaper)
{
    auto cfg1 = sim::GpuConfig::config1();
    for (Experiment *exp : {&ds2Exp(), &gnmtExp()}) {
        auto sels = exp->buildAllSelections(cfg1);
        std::map<SelectorKind, double> geo;
        for (auto &[kind, sel] : sels) {
            std::vector<double> errs;
            for (const auto &cfg : sim::GpuConfig::table2()) {
                errs.push_back(core::timeErrorPercent(
                    exp->projectedTrainSec(sel, cfg),
                    exp->actualTrainSec(cfg)));
            }
            geo[kind] = geomean(errs);
        }
        EXPECT_LT(geo[SelectorKind::SeqPoint],
                  geo[SelectorKind::Prior]);
        EXPECT_LT(geo[SelectorKind::Prior],
                  geo[SelectorKind::Median]);
        EXPECT_LT(geo[SelectorKind::Median],
                  geo[SelectorKind::Frequent]);
        EXPECT_LT(geo[SelectorKind::Frequent],
                  geo[SelectorKind::Worst]);
    }
}

TEST(Experiment, SeqPointSpeedupProjectionBeatsSingleIteration)
{
    // Fig 15/16: SeqPoint's uplift projections beat the
    // single-iteration proxies.
    auto cfgs = sim::GpuConfig::table2();
    for (Experiment *exp : {&ds2Exp(), &gnmtExp()}) {
        auto sels = exp->buildAllSelections(cfgs[0]);
        std::map<SelectorKind, double> worst_err;
        for (auto &[kind, sel] : sels) {
            double w = 0.0;
            double pt1 = exp->projectedThroughput(sel, cfgs[0]);
            double at1 = exp->actualThroughput(cfgs[0]);
            for (size_t i = 1; i < cfgs.size(); ++i) {
                double ptx = exp->projectedThroughput(sel, cfgs[i]);
                double atx = exp->actualThroughput(cfgs[i]);
                w = std::max(w, core::upliftErrorPoints(
                    core::upliftPercent(ptx, pt1),
                    core::upliftPercent(atx, at1)));
            }
            worst_err[kind] = w;
        }
        EXPECT_LT(worst_err[SelectorKind::SeqPoint], 0.5);
        EXPECT_LT(worst_err[SelectorKind::SeqPoint],
                  worst_err[SelectorKind::Median]);
        EXPECT_LT(worst_err[SelectorKind::SeqPoint],
                  worst_err[SelectorKind::Frequent]);
        EXPECT_LT(worst_err[SelectorKind::SeqPoint],
                  worst_err[SelectorKind::Worst]);
    }
}

TEST(Experiment, ProfilingSpeedupOrdersOfMagnitude)
{
    // Section VI-F: profiling only the SeqPoints cuts profiling time
    // by 1-2 orders of magnitude; parallel execution cuts it further.
    auto cfg1 = sim::GpuConfig::config1();
    for (Experiment *exp : {&ds2Exp(), &gnmtExp()}) {
        auto sp = exp->buildSelection(SelectorKind::SeqPoint, cfg1);
        double seqpoint_time = 0.0, longest = 0.0;
        for (const auto &p : sp.points) {
            double t = exp->iterTime(cfg1, p.seqLen);
            seqpoint_time += t;
            longest = std::max(longest, t);
        }
        double epoch = exp->actualTrainSec(cfg1);
        // Iteration-count reduction (the paper's 40x / 72x metric).
        double count_ratio =
            static_cast<double>(exp->epochLog(cfg1).numIterations()) /
            static_cast<double>(sp.points.size());
        EXPECT_GT(count_ratio, 30.0) << exp->workload().name;
        // Measured-time reduction, sequential and parallel.
        double sequential = epoch / seqpoint_time;
        double parallel = epoch / longest;
        EXPECT_GT(sequential, 10.0) << exp->workload().name;
        EXPECT_GT(parallel, sequential) << exp->workload().name;
        EXPECT_GT(parallel, 60.0) << exp->workload().name;
    }
}

TEST(Experiment, CnnIterationsHomogeneous)
{
    // Fig 3: CNN iterations are all alike.
    Experiment exp(makeCnnWorkload());
    auto cfg1 = sim::GpuConfig::config1();
    const prof::TrainLog &log = exp.epochLog(cfg1);
    for (const auto &it : log.iterations)
        EXPECT_DOUBLE_EQ(it.timeSec, log.iterations[0].timeSec);
    EXPECT_EQ(exp.slStats(cfg1).uniqueCount(), 1u);
}

TEST(Experiment, SqnnIterationsHeterogeneous)
{
    // Fig 3/4: SQNN iteration times spread widely.
    auto cfg1 = sim::GpuConfig::config1();
    std::vector<double> times;
    for (const auto &it : gnmtExp().epochLog(cfg1).iterations)
        times.push_back(it.timeSec);
    EXPECT_GT(maxOf(times) / minOf(times), 3.0);
}

TEST(Experiment, UpliftSensitivityVariesAcrossSl)
{
    // Figs 13/14: per-SL uplift varies along the SL axis.
    auto cfgs = sim::GpuConfig::table2();
    Experiment &exp = ds2Exp();
    std::vector<double> uplift;
    for (int64_t sl = 60; sl <= 440; sl += 20) {
        double t1 = exp.iterTime(cfgs[0], sl);
        double t2 = exp.iterTime(cfgs[1], sl);
        uplift.push_back((t2 / t1 - 1.0) * 100.0);
    }
    EXPECT_GT(maxOf(uplift) - minOf(uplift), 5.0);
}

/** One cold query's answers and the state it leaves behind. */
struct ColdAnswer {
    core::SeqPointSet selection;
    double projectedSec = 0.0;
    double actualSec = 0.0;
    prof::TrainLog log;   ///< The target's epoch log.
    std::string snapshot; ///< The target's encoded snapshot payload.
    size_t tunedShapes = 0; ///< The target tuner's cacheSize().
    uint32_t opCount = 0; ///< The model's interned ops afterwards.
};

/**
 * A cold query on a fresh Experiment: a SeqPoint selection on `ref`
 * (default config #1), projected to and measured on `target`
 * (default config #3).
 */
ColdAnswer
coldQuery(Workload wl,
          const sim::GpuConfig &ref = sim::GpuConfig::config1(),
          const sim::GpuConfig &target = sim::GpuConfig::config3())
{
    Experiment exp(std::move(wl));
    exp.setProfileThreads(1);
    ColdAnswer a;
    a.selection = exp.buildSelection(SelectorKind::SeqPoint, ref);
    a.projectedSec = exp.projectedTrainSec(a.selection, target);
    a.actualSec = exp.actualTrainSec(target);
    a.log = exp.epochLog(target);
    const auto snap = exp.snapshot(target);
    a.snapshot = encodeSnapshotPayload(*snap);
    a.tunedShapes = snap->tunerEntries.size();
    a.opCount = exp.workload().model.opCount();
    return a;
}

/** A workload factory's workload around a fresh, unshared model. */
Workload
withFreshModel(Workload wl, nn::Model model)
{
    wl.model = std::move(model);
    return wl;
}

void
expectIdentical(const ColdAnswer &got, const ColdAnswer &want)
{
    EXPECT_TRUE(got.selection == want.selection);
    EXPECT_EQ(got.projectedSec, want.projectedSec);
    EXPECT_EQ(got.actualSec, want.actualSec);
    EXPECT_TRUE(got.log.identicalTo(want.log));
    EXPECT_EQ(got.log.autotuneSec, want.log.autotuneSec);
    EXPECT_EQ(got.tunedShapes, want.tunedShapes);
    EXPECT_TRUE(got.snapshot == want.snapshot);
}

/** A network's workload factory and its fresh-model builder. */
struct Network {
    const char *name;
    Workload (*make)(uint64_t);
    nn::Model (*build)();
};

const Network kNetworks[] = {
    {"GNMT", makeGnmtWorkload, [] { return models::buildGnmt(); }},
    {"DS2", makeDs2Workload, [] { return models::buildDs2(); }},
};

TEST(SharedNetwork, BuiltModelsAreUnshared)
{
    // Lower a program through the GNMT workload's process-wide
    // network: a directly built GNMT shares none of its state.
    Workload wl = makeGnmtWorkload(23);
    wl.model.program(wl.batchSize, 20, true);
    ASSERT_GT(wl.model.opCount(), 0u);

    nn::Model fresh = models::buildGnmt();
    EXPECT_EQ(fresh.opCount(), 0u);
    EXPECT_NE(&fresh.layer(0), &wl.model.layer(0));
    fresh.setTargetLenRatio(fresh.targetLenRatio()); // still mutable
}

TEST(SharedNetwork, AnswersDoNotDependOnQueryHistory)
{
    // A workload's model is a share of its network's process-wide
    // memo, whose op ids are numbered by whatever was queried before.
    // Answers must not see that numbering.
    constexpr uint64_t kSeed = 1001;
    for (const Network &net : kNetworks) {
        SCOPED_TRACE(net.name);
        const ColdAnswer want =
            coldQuery(withFreshModel(net.make(kSeed), net.build()));

        // Other seeds first, the later one first, so the shared memo
        // numbers its ops in an order no fresh model would.
        for (uint64_t seed : {kSeed + 2, kSeed + 1})
            coldQuery(net.make(seed));
        const ColdAnswer got = coldQuery(net.make(kSeed));
        expectIdentical(got, want);
        EXPECT_GT(got.opCount, want.opCount);

        // An SL set the memo has seen interns nothing new.
        const ColdAnswer again = coldQuery(net.make(kSeed));
        expectIdentical(again, want);
        EXPECT_EQ(again.opCount, got.opCount);
    }
}

TEST(SharedNetwork, ConcurrentColdQueriesMatchSerial)
{
    // Four Experiments on different datasets of one network lower and
    // intern into its shared memo at once.
    const std::vector<uint64_t> seeds{2001, 2002, 2003, 2004};
    for (const Network &net : kNetworks) {
        SCOPED_TRACE(net.name);
        std::vector<ColdAnswer> serial;
        for (uint64_t seed : seeds)
            serial.push_back(
                coldQuery(withFreshModel(net.make(seed), net.build())));

        std::vector<ColdAnswer> shared(seeds.size());
        std::latch start(static_cast<std::ptrdiff_t>(seeds.size()));
        std::vector<std::thread> threads;
        for (size_t i = 0; i < seeds.size(); ++i)
            threads.emplace_back([&, i] {
                start.arrive_and_wait();
                shared[i] = coldQuery(net.make(seeds[i]));
            });
        for (std::thread &t : threads)
            t.join();

        for (size_t i = 0; i < seeds.size(); ++i) {
            SCOPED_TRACE(seeds[i]);
            expectIdentical(shared[i], serial[i]);
        }
    }
}

/**
 * `cfg` with its launch overhead moved `ulps` representable doubles
 * up: a configuration whose byte image no other test uses, so the
 * network's resolved-op tables for it start empty.
 */
sim::GpuConfig
nudged(sim::GpuConfig cfg, int ulps)
{
    for (int i = 0; i < ulps; ++i) {
        cfg.launchOverheadSec = std::nextafter(
            cfg.launchOverheadSec, std::numeric_limits<double>::infinity());
    }
    return cfg;
}

TEST(SharedNetwork, ConcurrentFirstFillOnFreshConfig)
{
    // Four threads per network race to fill the network's empty
    // tables for two configurations nothing else in this binary
    // queries: every op and shape slot is contended on first use.
    const sim::GpuConfig ref = nudged(sim::GpuConfig::config1(), 1);
    const sim::GpuConfig target = nudged(sim::GpuConfig::config3(), 1);
    const std::vector<uint64_t> seeds{2101, 2102, 2103, 2104};
    for (const Network &net : kNetworks) {
        SCOPED_TRACE(net.name);
        std::vector<ColdAnswer> serial;
        for (uint64_t seed : seeds)
            serial.push_back(coldQuery(
                withFreshModel(net.make(seed), net.build()), ref, target));

        std::vector<ColdAnswer> shared(seeds.size());
        std::latch start(static_cast<std::ptrdiff_t>(seeds.size()));
        std::vector<std::thread> threads;
        for (size_t i = 0; i < seeds.size(); ++i)
            threads.emplace_back([&, i] {
                start.arrive_and_wait();
                shared[i] = coldQuery(net.make(seeds[i]), ref, target);
            });
        for (std::thread &t : threads)
            t.join();

        for (size_t i = 0; i < seeds.size(); ++i) {
            SCOPED_TRACE(seeds[i]);
            expectIdentical(shared[i], serial[i]);
        }
    }
}

/** One config's epoch answer, with the tuner state it leaves. */
struct EpochAnswer {
    prof::TrainLog log;
    std::string snapshot; ///< Encoded snapshot payload.
};

EpochAnswer
epochAnswer(Workload wl, const sim::GpuConfig &cfg)
{
    Experiment exp(std::move(wl));
    exp.setProfileThreads(1);
    EpochAnswer a;
    a.log = exp.epochLog(cfg);
    a.snapshot = encodeSnapshotPayload(*exp.snapshot(cfg));
    return a;
}

void
expectIdentical(const EpochAnswer &got, const EpochAnswer &want)
{
    EXPECT_TRUE(got.log.identicalTo(want.log));
    EXPECT_EQ(got.log.autotuneSec, want.log.autotuneSec);
    EXPECT_TRUE(got.snapshot == want.snapshot);
}

TEST(SharedNetwork, ResolvedOpTablesAreCappedAndKeyed)
{
    constexpr uint64_t kSeed = 2201;
    const size_t cap = nn::Model::kResolvedOpTables;
    Workload probe = makeGnmtWorkload(kSeed);
    const nn::Model &model = probe.model;

    // More configurations than the cap, each with one field varied.
    std::vector<sim::GpuConfig> cfgs;
    for (size_t i = 0; i < cap + 2; ++i) {
        sim::GpuConfig cfg = sim::GpuConfig::config1();
        cfg.gclkHz += 1e6 * static_cast<double>(i + 1);
        cfgs.push_back(cfg);
    }
    const EpochAnswer first = epochAnswer(makeGnmtWorkload(kSeed), cfgs[0]);
    std::weak_ptr<nn::ResolvedOps> first_table =
        model.resolvedOps(cfgs[0], nn::Autotuner::Mode::Measured);
    EXPECT_GT(first_table.lock()->residentBytes(), 0u);
    for (size_t i = 1; i < cfgs.size(); ++i) {
        epochAnswer(makeGnmtWorkload(kSeed), cfgs[i]);
        EXPECT_LE(model.resolvedOpTables(), cap) << "config " << i;
    }
    // Evicted, and no Experiment holds it any more.
    EXPECT_TRUE(first_table.expired());

    // The evicted configuration refills a fresh table to the same
    // answer.
    expectIdentical(epochAnswer(makeGnmtWorkload(kSeed), cfgs[0]), first);
    EXPECT_LE(model.resolvedOpTables(), cap);

    // Heuristic and Measured tuners pick different tiles: one table
    // each. The same key finds the same table.
    const sim::GpuConfig cfg = cfgs[0];
    auto measured = model.resolvedOps(cfg, nn::Autotuner::Mode::Measured);
    auto heuristic = model.resolvedOps(cfg, nn::Autotuner::Mode::Heuristic);
    EXPECT_NE(measured, heuristic);
    EXPECT_EQ(model.resolvedOps(cfg, nn::Autotuner::Mode::Measured),
              measured);

    // A Heuristic profiler on the configuration the Measured table
    // already covers still matches executing its own lowering.
    sim::Gpu gpu(cfg);
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    prof::Profiler profiler(gpu, model, tuner, probe.batchSize);
    const prof::IterationProfile &p = profiler.profileIteration(37);
    nn::Autotuner oracle_tuner(nn::Autotuner::Mode::Heuristic);
    sim::Gpu oracle_gpu(cfg);
    const sim::ExecutionResult oracle = oracle_gpu.executeAll(
        model.lowerIteration(probe.batchSize, 37, oracle_tuner));
    EXPECT_EQ(p.timeSec, oracle.totalSec);
    EXPECT_TRUE(p.counters == oracle.counters);

    // -0.0 and 0.0 have different byte images: two tables. A NaN
    // field matches itself: one.
    sim::GpuConfig pos = cfg, neg = cfg, nan = cfg;
    pos.launchOverheadSec = 0.0;
    neg.launchOverheadSec = -0.0;
    nan.launchOverheadSec = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(model.resolvedOps(pos, nn::Autotuner::Mode::Measured),
              model.resolvedOps(neg, nn::Autotuner::Mode::Measured));
    EXPECT_EQ(model.resolvedOps(nan, nn::Autotuner::Mode::Measured),
              model.resolvedOps(nan, nn::Autotuner::Mode::Measured));
    EXPECT_LE(model.resolvedOpTables(), cap);
}

TEST(SharedNetwork, SeededTunerEntriesStayOutOfTheTable)
{
    // A snapshot whose tuner names a wrong tile for one shape seeds an
    // Experiment that then profiles an SL the snapshot lacks, filling
    // new ops into the network's table. The table must hold its own
    // probe's tile, so a later unseeded query stays exact.
    constexpr uint64_t kSeed = 2301;
    const sim::GpuConfig cfg = nudged(sim::GpuConfig::config2(), 1);
    for (const Network &net : kNetworks) {
        SCOPED_TRACE(net.name);
        Experiment donor(withFreshModel(net.make(kSeed), net.build()));
        donor.setProfileThreads(1);
        auto snap = std::make_shared<ModelSnapshot>(*donor.snapshot(cfg));

        int64_t sl = 1;
        while (snap->trainProfiles.count(sl))
            ++sl;

        // Doctor the tile of a shape that SL's programs share with a
        // snapshotted SL's, so later queries use it too.
        nn::Model fresh = net.build();
        nn::Autotuner lower_tuner(nn::Autotuner::Mode::Heuristic);
        std::set<std::tuple<int64_t, int64_t, int64_t>> new_shapes;
        for (const sim::KernelDesc &kd :
             fresh.lowerIteration(snap->batchSize, sl, lower_tuner)) {
            if (kd.klass == sim::KernelClass::Gemm)
                new_shapes.emplace(kd.gemmM, kd.gemmN, kd.gemmK);
        }
        bool doctored = false;
        for (const sim::KernelDesc &kd : fresh.lowerIteration(
                 snap->batchSize, snap->trainProfiles.begin()->first,
                 lower_tuner)) {
            for (nn::AutotuneEntry &e : snap->tunerEntries) {
                if (doctored || kd.klass != sim::KernelClass::Gemm ||
                    e.m != kd.gemmM || e.n != kd.gemmN ||
                    e.k != kd.gemmK || !new_shapes.count({e.m, e.n, e.k}))
                    continue;
                e.variant = e.variant.tileM == 16
                    ? nn::GemmVariant{128, 128, 16}
                    : nn::GemmVariant{16, 16, 16};
                doctored = true;
            }
        }
        ASSERT_TRUE(doctored);

        Experiment seeded(net.make(kSeed));
        seeded.setProfileThreads(1);
        seeded.seedFrom(snap);
        seeded.iterTime(cfg, sl);

        const ColdAnswer want = coldQuery(
            withFreshModel(net.make(kSeed + 1), net.build()), cfg, cfg);
        expectIdentical(coldQuery(net.make(kSeed + 1), cfg, cfg), want);
    }
}

} // anonymous namespace
} // namespace harness
} // namespace seqpoint
