/**
 * @file
 * Tests for the scheduler-backed figure pipeline and the shared
 * cold-start ModelSnapshot: the scheduled sweep must be byte-identical
 * to the serial pipeline at any thread count, and cells seeded from a
 * snapshot must produce bit-identical results to cold cells.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>

#include "harness/figures.hh"
#include "harness/snapshot_io.hh"

namespace seqpoint {
namespace harness {
namespace {

WorkloadFactory
ds2()
{
    return [] { return makeDs2Workload(); };
}

/** Bit-exact image of a profile (its snapshot encoding). */
std::string
profileBytes(const prof::IterationProfile &p)
{
    ByteWriter w;
    prof::encodeIterationProfile(w, p);
    return w.data();
}

TEST(FigurePipeline, ScheduledSweepByteIdenticalToSerialAnyThreads)
{
    // The acceptance sweep: a fig11-shaped (selector x config) grid,
    // serial vs scheduler at 1 and N threads, byte-identical.
    FigureSweep serial = runFigureSweepSerial(ds2());
    FigureSweep one = runFigureSweepScheduled(ds2(), 1);
    FigureSweep many = runFigureSweepScheduled(ds2(), 3);

    EXPECT_TRUE(serial.identicalTo(one));
    EXPECT_TRUE(serial.identicalTo(many));
    ASSERT_EQ(serial.columns.size(), 5u);
    ASSERT_EQ(serial.selections.size(), 5u);

    // Spot-check the grid is sensible: actuals positive, SeqPoint's
    // time projection within a couple percent everywhere.
    size_t sp = selectorOrder().size() - 1;
    ASSERT_EQ(selectorOrder()[sp], core::SelectorKind::SeqPoint);
    for (const FigureColumn &col : serial.columns) {
        EXPECT_GT(col.actualSec, 0.0) << col.config;
        double err = core::timeErrorPercent(col.projectedSec[sp],
                                            col.actualSec);
        EXPECT_LT(err, 2.0) << col.config;
    }
}

TEST(FigurePipeline, SensitivityScheduledIdenticalToSerial)
{
    SensitivitySweep serial =
        runSensitivitySweepSerial(ds2(), 60, 220, 40);
    SensitivitySweep sched =
        runSensitivitySweepScheduled(ds2(), 60, 220, 40, 3);
    EXPECT_TRUE(serial.identicalTo(sched));
    ASSERT_EQ(serial.sls.size(), 5u);
    ASSERT_EQ(serial.configs.size(), 5u);
    ASSERT_EQ(serial.iterSec.size(), serial.configs.size());
}

TEST(EpochSchedule, MatchesEpochLogOrder)
{
    // runTrainingEpoch builds its training batches through
    // epochBatchSchedule; this pins the shared schedule to the
    // executed iteration order.
    Experiment exp(makeDs2Workload());
    exp.setProfileThreads(1);
    const prof::TrainLog &log =
        exp.epochLog(sim::GpuConfig::config1());

    prof::TrainConfig tc;
    tc.batchSize = exp.workload().batchSize;
    tc.policy = exp.workload().policy;
    tc.seed = exp.workload().seed;
    auto schedule =
        prof::epochBatchSchedule(exp.workload().dataset, tc);

    ASSERT_EQ(schedule.size(), log.numIterations());
    for (size_t i = 0; i < schedule.size(); ++i)
        ASSERT_EQ(schedule[i].seqLen, log.iterations[i].seqLen) << i;
}

TEST(ModelSnapshot, SeededExperimentBitIdenticalToCold)
{
    auto cfg1 = sim::GpuConfig::config1();
    auto cfg2 = sim::GpuConfig::config2();

    // Freeze a fully warmed reference state.
    Experiment donor(makeDs2Workload());
    donor.setProfileThreads(1);
    // Seed through the on-disk payload codec, as a store-warmed
    // process does: nothing beyond what the payload carries survives.
    auto snap = std::make_shared<const ModelSnapshot>(
        decodeSnapshotPayload(encodeSnapshotPayload(*donor.snapshot(cfg1)),
                              "seeded-test"));
    EXPECT_EQ(snap->workload, "DS2");
    ASSERT_FALSE(snap->trainProfiles.empty());
    EXPECT_FALSE(snap->tunerEntries.empty());
    EXPECT_EQ(snap->selections.size(), 5u);

    // A seeded experiment must reproduce a cold experiment bit for
    // bit -- on the snapshot's config (served from the snapshot) and
    // on other configs (still computed cold).
    Experiment seeded(makeDs2Workload());
    seeded.setProfileThreads(1);
    seeded.seedFrom(snap);
    Experiment cold(makeDs2Workload());
    cold.setProfileThreads(1);

    // The snapshot carries no kernel timings, so SLs it lacks (below
    // and above the dataset's range) and every detailed profile are
    // timed afresh on the seeded device -- still bit-identical.
    int64_t lo = snap->trainProfiles.begin()->first - 1;
    int64_t hi = snap->trainProfiles.rbegin()->first + 7;
    ASSERT_GT(lo, 0);
    for (int64_t sl : {lo, hi}) {
        ASSERT_EQ(snap->trainProfiles.count(sl), 0u) << sl;
        EXPECT_EQ(profileBytes(seeded.iterProfile(cfg1, sl)),
                  profileBytes(cold.iterProfile(cfg1, sl)))
            << sl;
    }
    for (int64_t sl : {lo, snap->trainProfiles.begin()->first, hi}) {
        prof::DetailedProfile a = seeded.iterProfileDetailed(cfg1, sl);
        prof::DetailedProfile b = cold.iterProfileDetailed(cfg1, sl);
        EXPECT_EQ(profileBytes(a), profileBytes(b)) << sl;
        EXPECT_EQ(a.launchesByKernel, b.launchesByKernel) << sl;
        ASSERT_EQ(a.timeByKernel.size(), b.timeByKernel.size()) << sl;
        for (auto ia = a.timeByKernel.begin(),
                  ib = b.timeByKernel.begin();
             ia != a.timeByKernel.end(); ++ia, ++ib) {
            EXPECT_EQ(ia->first, ib->first);
            EXPECT_EQ(std::bit_cast<uint64_t>(ia->second),
                      std::bit_cast<uint64_t>(ib->second))
                << ia->first;
        }
    }

    EXPECT_TRUE(seeded.epochLog(cfg1).identicalTo(cold.epochLog(cfg1)));
    EXPECT_TRUE(seeded.epochLog(cfg2).identicalTo(cold.epochLog(cfg2)));
    EXPECT_EQ(seeded.iterTime(cfg1, 100), cold.iterTime(cfg1, 100));
    EXPECT_EQ(seeded.iterTime(cfg2, 100), cold.iterTime(cfg2, 100));
    EXPECT_EQ(seeded.actualThroughput(cfg1),
              cold.actualThroughput(cfg1));

    EXPECT_TRUE(
        seeded.buildSelection(core::SelectorKind::SeqPoint, cfg1) ==
        cold.buildSelection(core::SelectorKind::SeqPoint, cfg1));
}

TEST(ModelSnapshot, SeededSchedulerCellsMatchColdCells)
{
    auto configs = std::vector<sim::GpuConfig>{
        sim::GpuConfig::config1(), sim::GpuConfig::config2()};

    Experiment donor(makeDs2Workload());
    donor.setProfileThreads(1);
    auto snap = donor.snapshot(configs[0]);

    ExperimentScheduler sched(2);
    auto cold = sched.epochSweep({ds2()}, configs);
    auto seeded = sched.epochSweep({ds2()}, configs, {snap});
    ASSERT_EQ(cold.size(), seeded.size());
    for (size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].workload, seeded[i].workload);
        EXPECT_EQ(cold[i].config, seeded[i].config);
        EXPECT_EQ(cold[i].iterations, seeded[i].iterations);
        EXPECT_EQ(cold[i].trainSec, seeded[i].trainSec);
        EXPECT_EQ(cold[i].evalSec, seeded[i].evalSec);
        EXPECT_EQ(cold[i].throughput, seeded[i].throughput);
        EXPECT_TRUE(cold[i].counters == seeded[i].counters);
    }
}

TEST(FigurePipeline, RegistryWarmedSweepsByteIdenticalToSerial)
{
    std::string dir =
        (std::filesystem::path(testing::TempDir()) / "fig_store")
            .string();
    std::filesystem::remove_all(dir); // stale stores from earlier runs

    FigureSweep serial = runFigureSweepSerial(ds2(), 1);

    // First registry pass builds (and persists) every per-config
    // snapshot; a second pass through a fresh registry on the same
    // store replays entirely from disk. Both must match the serial
    // pipeline bit for bit.
    SnapshotRegistry builder(dir);
    FigureSweep built = runFigureSweepScheduled(ds2(), 2, &builder);
    EXPECT_TRUE(serial.identicalTo(built));
    EXPECT_GE(builder.stats().builds, 1u);

    SnapshotRegistry reader(dir);
    FigureSweep warmed = runFigureSweepScheduled(ds2(), 2, &reader);
    EXPECT_TRUE(serial.identicalTo(warmed));
    EXPECT_EQ(reader.stats().builds, 0u);
    EXPECT_GE(reader.stats().diskHits, 1u);

    // Sensitivity cells seed (lookup-only) from the per-config
    // snapshots the figure sweep left behind, bit-identically.
    SensitivitySweep sens_serial =
        runSensitivitySweepSerial(ds2(), 60, 220, 40, 1);
    SnapshotRegistry sens_reader(dir);
    SensitivitySweep sens_warmed = runSensitivitySweepScheduled(
        ds2(), 60, 220, 40, 2, &sens_reader);
    EXPECT_TRUE(sens_serial.identicalTo(sens_warmed));
    EXPECT_EQ(sens_reader.stats().builds, 0u);
    EXPECT_GE(sens_reader.stats().diskHits, 5u);
}

TEST(FigurePipeline, RegistryEpochSweepMatchesPlainSweep)
{
    std::vector<WorkloadFactory> workloads = {ds2()};
    std::vector<sim::GpuConfig> configs = {
        sim::GpuConfig::config1(), sim::GpuConfig::config2()};

    ExperimentScheduler sched(2);
    auto plain = sched.epochSweep(workloads, configs);

    // The registry-aware sweep acquires one snapshot per cell; a
    // second sweep over the same registry replays from memory. All
    // three runs must agree exactly.
    SnapshotRegistry reg;
    auto warmed_build = sched.epochSweep(workloads, configs, reg);
    EXPECT_EQ(reg.stats().builds, configs.size());
    auto warmed_replay = sched.epochSweep(workloads, configs, reg);
    EXPECT_EQ(reg.stats().builds, configs.size());
    EXPECT_GE(reg.stats().memoryHits, configs.size());

    ASSERT_EQ(plain.size(), warmed_build.size());
    ASSERT_EQ(plain.size(), warmed_replay.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        for (const auto *other : {&warmed_build[i], &warmed_replay[i]}) {
            EXPECT_EQ(plain[i].workload, other->workload);
            EXPECT_EQ(plain[i].config, other->config);
            EXPECT_EQ(plain[i].iterations, other->iterations);
            EXPECT_EQ(plain[i].trainSec, other->trainSec);
            EXPECT_EQ(plain[i].evalSec, other->evalSec);
            EXPECT_EQ(plain[i].throughput, other->throughput);
            EXPECT_TRUE(plain[i].counters == other->counters);
        }
    }
}

TEST(ModelSnapshotDeathTest, MisuseFailsLoudly)
{
    Experiment donor(makeDs2Workload());
    donor.setProfileThreads(1);
    auto snap = donor.snapshot(sim::GpuConfig::config1());

    // Seeding after a query is too late.
    Experiment late(makeDs2Workload());
    late.setProfileThreads(1);
    late.iterTime(sim::GpuConfig::config1(), 40);
    EXPECT_DEATH(late.seedFrom(snap), "seedFrom");

    // Seeding a different workload's experiment is a category error.
    Experiment wrong(makeGnmtWorkload());
    EXPECT_DEATH(wrong.seedFrom(snap), "workload");

    // Same workload name is not enough: a same-name variant with a
    // different run seed holds different results.
    Experiment variant(makeDs2Workload(31));
    EXPECT_DEATH(variant.seedFrom(snap), "parameters");
}

} // anonymous namespace
} // namespace harness
} // namespace seqpoint
