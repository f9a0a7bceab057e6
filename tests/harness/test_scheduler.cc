/**
 * @file
 * Tests for the parallel experiment scheduler: the parallel sweep
 * must be byte-identical to the serial sweep, merge order must be
 * deterministic, cells must be isolated from one another, and a
 * failing cell must be contained, retried and recorded in its
 * CellTiming outcome.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "epoch_cells.hh"
#include "harness/scheduler.hh"
#include "models/gnmt.hh"

namespace seqpoint {
namespace harness {
namespace {

std::vector<WorkloadFactory>
threeWorkloads()
{
    return {[] { return makeGnmtWorkload(); },
            [] { return makeDs2Workload(); },
            [] { return makeCnnWorkload(); }};
}

std::vector<sim::GpuConfig>
fourConfigs()
{
    return {sim::GpuConfig::config1(), sim::GpuConfig::config2(),
            sim::GpuConfig::config3(), sim::GpuConfig::config4()};
}

TEST(ExperimentScheduler, ParallelSweepByteIdenticalToSerial)
{
    // The acceptance sweep: 3 workloads x 4 configs, serial vs
    // parallel schedulers, every cell field bit-identical.
    auto workloads = threeWorkloads();
    auto configs = fourConfigs();

    ExperimentScheduler serial(1);
    ExperimentScheduler parallel(4);

    auto a = epochCells(serial, workloads, configs);
    auto b = epochCells(parallel, workloads, configs);
    ASSERT_EQ(a.size(), 12u);
    expectCellsIdentical(a, b);
}

/** One cell's epoch answer and the thread that computed it. */
struct SharedTableCell {
    std::thread::id thread;
    prof::TrainLog log;
};

TEST(ExperimentScheduler, CellsOfOneNetworkAndConfigRaceOnOneTable)
{
    // Two cells of one network on one configuration -- two dataset
    // seeds of GNMT, on a configuration nothing else in this binary
    // queries -- meet before they start, so they run at once on two
    // pool threads and race to fill the network's empty resolved-op
    // table. Each must equal a serial run on a model of its own.
    sim::GpuConfig cfg = sim::GpuConfig::config2();
    cfg.launchOverheadSec = std::nextafter(
        cfg.launchOverheadSec, std::numeric_limits<double>::infinity());
    const std::vector<uint64_t> seeds{3101, 3102};

    std::atomic<int> arrived{0};
    std::function<SharedTableCell(Experiment &, const sim::GpuConfig &)>
        eval = [&arrived](Experiment &exp, const sim::GpuConfig &c) {
            arrived.fetch_add(1);
            const auto give_up = std::chrono::steady_clock::now() +
                std::chrono::seconds(60);
            while (arrived.load() < 2 &&
                   std::chrono::steady_clock::now() < give_up)
                std::this_thread::yield();
            SharedTableCell cell;
            cell.thread = std::this_thread::get_id();
            cell.log = exp.epochLog(c);
            return cell;
        };
    const auto cells = ExperimentScheduler(2).mapCells<SharedTableCell>(
        {[&] { return makeGnmtWorkload(seeds[0]); },
         [&] { return makeGnmtWorkload(seeds[1]); }},
        {cfg}, eval);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_NE(cells[0].thread, cells[1].thread);

    for (size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(seeds[i]);
        Workload wl = makeGnmtWorkload(seeds[i]);
        wl.model = models::buildGnmt();
        Experiment exp(std::move(wl));
        exp.setProfileThreads(1);
        const prof::TrainLog &log = exp.epochLog(cfg);
        EXPECT_TRUE(cells[i].log.identicalTo(log));
    }
}

TEST(ExperimentScheduler, MatchesDirectSerialExperimentLoop)
{
    auto configs = fourConfigs();
    ExperimentScheduler sched(4);
    auto cells =
        epochCells(sched, {[] { return makeDs2Workload(); }}, configs);
    ASSERT_EQ(cells.size(), configs.size());

    Experiment exp(makeDs2Workload());
    exp.setProfileThreads(1);
    for (size_t c = 0; c < configs.size(); ++c) {
        const prof::TrainLog &log = exp.epochLog(configs[c]);
        EXPECT_EQ(cells[c].trainSec, log.trainSec) << configs[c].name;
        EXPECT_EQ(cells[c].iterations, log.numIterations());
        EXPECT_EQ(cells[c].throughput,
                  log.throughput(exp.workload().batchSize));
    }
}

TEST(ExperimentScheduler, MergeOrderIsWorkloadMajorConfigMinor)
{
    auto cells = epochCells(
        ExperimentScheduler(4),
        {[] { return makeCnnWorkload(); },
         [] { return makeDs2Workload(); }},
        {sim::GpuConfig::config1(), sim::GpuConfig::config2()});
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].workload, "CNN");
    EXPECT_EQ(cells[0].config, "config#1");
    EXPECT_EQ(cells[1].workload, "CNN");
    EXPECT_EQ(cells[1].config, "config#2");
    EXPECT_EQ(cells[2].workload, "DS2");
    EXPECT_EQ(cells[2].config, "config#1");
    EXPECT_EQ(cells[3].workload, "DS2");
    EXPECT_EQ(cells[3].config, "config#2");
}

TEST(ExperimentScheduler, MapCellsCustomEvaluation)
{
    ExperimentScheduler sched(2);
    std::function<double(Experiment &, const sim::GpuConfig &)> eval =
        [](Experiment &exp, const sim::GpuConfig &cfg) {
            return exp.iterTime(cfg, 40);
        };
    auto times = sched.mapCells<double>(
        {[] { return makeGnmtWorkload(); }},
        {sim::GpuConfig::config1(), sim::GpuConfig::config2()}, eval);
    ASSERT_EQ(times.size(), 2u);
    // The downclocked config must be slower at the same SL.
    EXPECT_GT(times[1], times[0]);
}

TEST(ExperimentScheduler, CellTimingsCoverEveryCellWithoutSkew)
{
    // The per-cell wall-time breakdown indexes like the results,
    // covers setup + eval consistently, and never perturbs them.
    auto workloads = threeWorkloads();
    auto configs = fourConfigs();

    std::vector<CellTiming> timings;
    auto timed = epochCells(ExperimentScheduler(4), workloads, configs,
                            {}, &timings);
    auto plain = epochCells(ExperimentScheduler(4), workloads, configs);
    expectCellsIdentical(timed, plain);

    ASSERT_EQ(timings.size(), timed.size());
    for (size_t i = 0; i < timings.size(); ++i) {
        EXPECT_GT(timings[i].totalSec, 0.0) << "cell " << i;
        EXPECT_GE(timings[i].setupSec, 0.0) << "cell " << i;
        EXPECT_GE(timings[i].totalSec, timings[i].setupSec)
            << "cell " << i;
        EXPECT_GE(timings[i].evalSec(), 0.0) << "cell " << i;
        EXPECT_FALSE(timings[i].outcome.failed) << "cell " << i;
        EXPECT_EQ(timings[i].outcome.attempts, 1u) << "cell " << i;
    }
}

TEST(ExperimentScheduler, EmptyGridIsEmptyResult)
{
    ExperimentScheduler sched(4);
    EXPECT_TRUE(epochCells(sched, {}, fourConfigs()).empty());
    EXPECT_TRUE(epochCells(sched, threeWorkloads(), {}).empty());
}

TEST(ExperimentScheduler, DefaultThreadsPositive)
{
    EXPECT_GE(ExperimentScheduler().threads(), 1u);
}

/** 2x2 grid for the containment tests (keeps the cold starts cheap). */
std::vector<WorkloadFactory>
twoWorkloads()
{
    return {[] { return makeGnmtWorkload(); },
            [] { return makeDs2Workload(); }};
}

std::vector<sim::GpuConfig>
twoConfigs()
{
    return {sim::GpuConfig::config1(), sim::GpuConfig::config2()};
}

TEST(ExperimentSchedulerFaults, FailedCellIsContainedAndMarked)
{
    FaultInjector::instance().reset();
    setQuietLogging(true);
    auto workloads = twoWorkloads();
    auto configs = twoConfigs();

    ExperimentScheduler sched(2);
    auto clean = epochCells(sched, workloads, configs);

    // Fault cell (1, 0) -- DS2 on config#1 -- with no retry budget:
    // the sweep must still complete, the other three cells must be
    // bit-identical to the clean run, and the failed cell's outcome
    // must say so while its result slot stays default-constructed.
    FaultInjector::instance().armAt("scheduler.cell", "1/0", {1},
                                    ErrorCode::IoError);
    std::vector<CellTiming> timings;
    auto faulted = epochCells(sched, workloads, configs, {}, &timings);
    ASSERT_EQ(faulted.size(), 4u);
    ASSERT_EQ(timings.size(), 4u);

    const std::size_t failed_cell = 1 * configs.size() + 0;
    for (std::size_t i = 0; i < faulted.size(); ++i) {
        if (i == failed_cell)
            continue;
        EXPECT_FALSE(timings[i].outcome.failed) << "cell " << i;
        EXPECT_TRUE(timings[i].outcome.error.empty()) << "cell " << i;
        EXPECT_EQ(faulted[i].trainSec, clean[i].trainSec)
            << "cell " << i;
        EXPECT_EQ(faulted[i].throughput, clean[i].throughput)
            << "cell " << i;
    }
    const CellOutcome &bad = timings[failed_cell].outcome;
    EXPECT_TRUE(bad.failed);
    EXPECT_EQ(bad.attempts, 1u);
    EXPECT_NE(bad.error.find("injected fault"), std::string::npos)
        << bad.error;
    EXPECT_NE(bad.error.find("io_error"), std::string::npos);
    EXPECT_EQ(faulted[failed_cell].iterations, 0u); // slot stayed default
    EXPECT_TRUE(faulted[failed_cell].workload.empty());

    FaultInjector::instance().reset();
    setQuietLogging(false);
}

TEST(ExperimentSchedulerFaults, RetriedCellConvergesToCleanResult)
{
    FaultInjector::instance().reset();
    setQuietLogging(true);
    auto workloads = twoWorkloads();
    auto configs = twoConfigs();

    ExperimentScheduler serial(1);
    auto clean = epochCells(serial, workloads, configs);

    // Two consecutive faults on cell (0, 1); a budget of two retries
    // (three attempts) outlasts them, so the sweep must converge to
    // the bit-identical clean results with no failed cells.
    FaultInjector::instance().armAt("scheduler.cell", "0/1", {1, 2});
    ExperimentScheduler sched(2);
    sched.setCellRetries(2);
    std::vector<CellTiming> timings;
    auto retried = epochCells(sched, workloads, configs, {}, &timings);

    expectCellsIdentical(retried, clean);
    for (const CellTiming &t : timings)
        EXPECT_FALSE(t.outcome.failed);
    const std::size_t faulted_cell = 0 * configs.size() + 1;
    EXPECT_EQ(timings[faulted_cell].outcome.attempts, 3u);
    EXPECT_FALSE(timings[faulted_cell].outcome.failed);
    EXPECT_EQ(FaultInjector::instance().fired("scheduler.cell"), 2u);

    FaultInjector::instance().reset();
    setQuietLogging(false);
}

TEST(ExperimentSchedulerFaults, PlainExceptionInCellBodyIsContained)
{
    // Not every failure arrives as a RecoverableError: a cell body
    // throwing any std::exception is classified as cell_failed and
    // contained the same way.
    setQuietLogging(true);
    ExperimentScheduler sched(2);
    std::vector<CellTiming> timings;
    auto results = sched.mapCells<int>(
        twoWorkloads(), twoConfigs(),
        [](Experiment &exp, const sim::GpuConfig &cfg) -> int {
            if (exp.workload().name == "DS2" &&
                cfg.name == sim::GpuConfig::config2().name)
                throw std::runtime_error("synthetic body failure");
            return 7;
        },
        {}, &timings);

    ASSERT_EQ(results.size(), 4u);
    const std::size_t bad = 1 * 2 + 1;
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i == bad ? 0 : 7) << "cell " << i;
    EXPECT_TRUE(timings[bad].outcome.failed);
    EXPECT_NE(timings[bad].outcome.error.find("cell_failed"),
              std::string::npos);
    EXPECT_NE(timings[bad].outcome.error.find("synthetic body failure"),
              std::string::npos);
    setQuietLogging(false);
}

} // anonymous namespace
} // namespace harness
} // namespace seqpoint
