/**
 * @file
 * Tests for the scheduler-backed figure pipeline and the shared
 * cold-start ModelSnapshot: the scheduled sweep must be byte-identical
 * to the serial pipeline at any thread count, and cells seeded from a
 * snapshot must produce bit-identical results to cold cells.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "epoch_cells.hh"
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
    auto cold = epochCells(sched, {ds2()}, configs);
    auto seeded = epochCells(
        sched, {ds2()}, configs,
        [&snap](std::size_t, const sim::GpuConfig &, Experiment &) {
            return snap;
        });
    ASSERT_EQ(cold.size(), configs.size());
    expectCellsIdentical(cold, seeded);
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

TEST(FigurePipeline, StoreOfAnotherBuildRebuildsByteIdentical)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::path(testing::TempDir()) / "fig_store_other_build").string();
    fs::remove_all(dir);

    FigureSweep cold = runFigureSweepSerial(ds2(), 1);
    SnapshotRegistry builder(dir);
    FigureSweep built = runFigureSweepScheduled(ds2(), 2, &builder);
    ASSERT_TRUE(cold.identicalTo(built));

    // Give every stored file another build's identity: rewrite the
    // header's identity (bytes 4..11) in place under the file's
    // current name, as a store filled before a model edit would look.
    auto read = [](const fs::path &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    ByteWriter other;
    other.u64(~snapshotBuildId());
    std::map<std::string, std::string> stored;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::string bytes = read(entry.path());
        stored[entry.path().string()] = bytes;
        std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
            << bytes.replace(4, 8, other.data());
    }
    ASSERT_EQ(stored.size(), builder.stats().builds);

    // The store-warmed sweep rebuilds every cell instead of adopting
    // a stale file, drops the foreign files without quarantining
    // them, and matches the cold run byte for byte.
    SnapshotRegistry reader(dir);
    FigureSweep warmed = runFigureSweepScheduled(ds2(), 2, &reader);
    EXPECT_TRUE(cold.identicalTo(warmed));
    EXPECT_EQ(reader.stats().builds, stored.size());
    EXPECT_EQ(reader.stats().diskHits, 0u);
    EXPECT_EQ(reader.stats().quarantines, 0u);

    // Each name now holds this build's rewrite, which is the original
    // file again; nothing else is left in the store.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::string path = entry.path().string();
        ASSERT_TRUE(stored.count(path)) << path;
        EXPECT_EQ(read(entry.path()), stored[path]) << path;
        ++files;
    }
    EXPECT_EQ(files, stored.size());
}

TEST(FigurePipeline, RegistryEpochSweepMatchesPlainSweep)
{
    std::vector<WorkloadFactory> workloads = {ds2()};
    std::vector<sim::GpuConfig> configs = {
        sim::GpuConfig::config1(), sim::GpuConfig::config2()};

    ExperimentScheduler sched(2);
    auto plain = epochCells(sched, workloads, configs);

    // The registry-backed sweep acquires one snapshot per cell; a
    // second sweep over the same registry replays from memory. All
    // three runs must agree exactly.
    SnapshotRegistry reg;
    auto warmed_build = epochCells(sched, workloads, configs,
                                   registrySnapshots(reg, workloads));
    EXPECT_EQ(reg.stats().builds, configs.size());
    auto warmed_replay = epochCells(sched, workloads, configs,
                                    registrySnapshots(reg, workloads));
    EXPECT_EQ(reg.stats().builds, configs.size());
    EXPECT_GE(reg.stats().memoryHits, configs.size());

    ASSERT_EQ(plain.size(), configs.size());
    expectCellsIdentical(plain, warmed_build);
    expectCellsIdentical(plain, warmed_replay);
}

/**
 * Run `sweep` expecting it to fail: @return the CellFailed message it
 * threw ("" and a test failure when it returned or threw otherwise).
 */
template <typename Sweep>
std::string
cellFailureOf(Sweep sweep)
{
    try {
        (void)sweep();
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::CellFailed);
        return e.status().message();
    }
    ADD_FAILURE() << "a sweep with a failed cell returned";
    return "";
}

TEST(FigurePipeline, CellFailingEveryAttemptFailsTheSweep)
{
    // Cells 0/1 and 0/3 fail on both of their attempts. Each sweep
    // must fail with the first failed cell's error in cell order
    // (config#2's, whichever cell failed first in time) instead of
    // returning a column of defaults.
    auto &inj = FaultInjector::instance();
    auto cfgs = sim::GpuConfig::table2();
    setQuietLogging(true);
    auto armBothCells = [&inj] {
        inj.reset();
        inj.armAt("scheduler.cell", "0/1", {1, 2}, ErrorCode::IoError);
        inj.armAt("scheduler.cell", "0/3", {1, 2}, ErrorCode::IoError);
    };

    armBothCells();
    std::string fig = cellFailureOf(
        [] { return runFigureSweepScheduled(ds2(), 2, nullptr, 1); });
    EXPECT_EQ(inj.fired("scheduler.cell"), 4u);

    armBothCells();
    std::string sens = cellFailureOf([] {
        return runSensitivitySweepScheduled(ds2(), 60, 220, 40, 2,
                                            nullptr, 1);
    });
    EXPECT_EQ(inj.fired("scheduler.cell"), 4u);

    for (const std::string &msg : {fig, sens}) {
        EXPECT_NE(msg.find("cell " + cfgs[1].name + " failed after 2 "
                           "attempt(s): io_error: injected fault at "
                           "scheduler.cell:0/1"),
                  std::string::npos)
            << msg;
    }
    EXPECT_EQ(fig.rfind("figure sweep: ", 0), 0u) << fig;
    EXPECT_EQ(sens.rfind("sensitivity sweep: ", 0), 0u) << sens;
    inj.reset();
    setQuietLogging(false);
}

TEST(FigurePipeline, CellRetriedPastOneFaultMatchesSerialSweep)
{
    // One fault on cell 0/2 under a one-retry budget: the retry
    // converges, and each sweep is bit-identical to the serial one.
    auto &inj = FaultInjector::instance();
    setQuietLogging(true);

    inj.reset();
    inj.armAt("scheduler.cell", "0/2", {1}, ErrorCode::IoError);
    FigureSweep fig = runFigureSweepScheduled(ds2(), 2, nullptr, 1);
    EXPECT_EQ(inj.fired("scheduler.cell"), 1u);
    EXPECT_TRUE(fig.identicalTo(runFigureSweepSerial(ds2(), 1)));

    inj.reset();
    inj.armAt("scheduler.cell", "0/2", {1}, ErrorCode::IoError);
    SensitivitySweep sens =
        runSensitivitySweepScheduled(ds2(), 60, 220, 40, 2, nullptr, 1);
    EXPECT_EQ(inj.fired("scheduler.cell"), 1u);
    EXPECT_TRUE(
        sens.identicalTo(runSensitivitySweepSerial(ds2(), 60, 220, 40, 1)));

    inj.reset();
    setQuietLogging(false);
}

TEST(FigureSweep, IdenticalToComparesBitPatterns)
{
    FigureSweep sweep;
    sweep.columns.push_back(
        {"cfg", std::nan(""), 2.0, {0.5, std::nan("")}, {0.0, 1.0}});
    sweep.selections[core::SelectorKind::SeqPoint].points = {
        {40, 3.0, std::nan("")}};
    FigureSweep copy = sweep;
    EXPECT_TRUE(sweep.identicalTo(copy));

    // -0.0 for 0.0 in a column, or in a selection, is another sweep.
    FigureSweep negative_zero = sweep;
    negative_zero.columns[0].projectedThroughput[0] = -0.0;
    EXPECT_FALSE(sweep.identicalTo(negative_zero));
    negative_zero = sweep;
    negative_zero.selections[core::SelectorKind::SeqPoint].selfError = -0.0;
    EXPECT_FALSE(sweep.identicalTo(negative_zero));
    FigureSweep other_nan = sweep;
    other_nan.columns[0].actualSec = std::bit_cast<double>(
        std::bit_cast<uint64_t>(sweep.columns[0].actualSec) | 1);
    EXPECT_FALSE(sweep.identicalTo(other_nan));
}

TEST(SensitivitySweep, IdenticalToComparesBitPatterns)
{
    SensitivitySweep sweep;
    sweep.sls = {40, 80};
    sweep.configs = {"cfg"};
    sweep.iterSec = {{std::nan(""), 0.0}};
    sweep.batchSize = 64;
    SensitivitySweep copy = sweep;
    EXPECT_TRUE(sweep.identicalTo(copy));

    SensitivitySweep negative_zero = sweep;
    negative_zero.iterSec[0][1] = -0.0;
    EXPECT_FALSE(sweep.identicalTo(negative_zero));
    SensitivitySweep other_batch = sweep;
    other_batch.batchSize = 32;
    EXPECT_FALSE(sweep.identicalTo(other_batch));
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
