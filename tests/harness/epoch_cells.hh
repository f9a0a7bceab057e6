/**
 * @file
 * The epoch cell the scheduler tests sweep through mapCells(): one
 * full training epoch per (workload, config) cell, epoch-level
 * measurements out, and a field-by-field identity check between two
 * sweeps.
 */

#ifndef SEQPOINT_TESTS_HARNESS_EPOCH_CELLS_HH
#define SEQPOINT_TESTS_HARNESS_EPOCH_CELLS_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "harness/scheduler.hh"

namespace seqpoint {
namespace harness {

/** Epoch-level measurements of one (workload, config) cell. */
struct EpochCell {
    std::string workload;       ///< Workload name.
    std::string config;         ///< Configuration name.
    std::size_t iterations = 0; ///< Epoch iteration count.
    double trainSec = 0.0;      ///< Epoch training time.
    double evalSec = 0.0;       ///< Evaluation-phase time.
    double throughput = 0.0;    ///< Training throughput (samples/s).
    sim::PerfCounters counters; ///< Summed training counters.
};

/** The cell body: run the epoch, copy out its measurements. */
inline EpochCell
epochCell(Experiment &exp, const sim::GpuConfig &cfg)
{
    const prof::TrainLog &log = exp.epochLog(cfg);
    EpochCell r;
    r.workload = exp.workload().name;
    r.config = cfg.name;
    r.iterations = log.numIterations();
    r.trainSec = log.trainSec;
    r.evalSec = log.evalSec;
    r.throughput = log.throughput(exp.workload().batchSize);
    r.counters = log.counters;
    return r;
}

/** One epoch cell per (workload x config), through mapCells(). */
inline std::vector<EpochCell>
epochCells(const ExperimentScheduler &sched,
           const std::vector<WorkloadFactory> &workloads,
           const std::vector<sim::GpuConfig> &configs,
           const ExperimentScheduler::SnapshotProvider &snapshots = {},
           std::vector<CellTiming> *timings = nullptr)
{
    return sched.mapCells<EpochCell>(workloads, configs, epochCell,
                                     snapshots, timings);
}

/** Every field of every cell bit-identical. */
inline void
expectCellsIdentical(const std::vector<EpochCell> &a,
                     const std::vector<EpochCell> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload) << "cell " << i;
        EXPECT_EQ(a[i].config, b[i].config) << "cell " << i;
        EXPECT_EQ(a[i].iterations, b[i].iterations) << "cell " << i;
        EXPECT_EQ(a[i].trainSec, b[i].trainSec) << "cell " << i;
        EXPECT_EQ(a[i].evalSec, b[i].evalSec) << "cell " << i;
        EXPECT_EQ(a[i].throughput, b[i].throughput) << "cell " << i;
        EXPECT_TRUE(a[i].counters == b[i].counters) << "cell " << i;
    }
}

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_TESTS_HARNESS_EPOCH_CELLS_HH
