/**
 * @file
 * The figure pipeline: the (selector x configuration) evaluation
 * grids behind the paper's headline figures (11/12: training-time
 * projection error; 15/16: throughput-uplift projection error; 13/14:
 * per-SL sensitivity), computable either serially inside one
 * Experiment (the legacy path) or as ExperimentScheduler cells that
 * share one ModelSnapshot cold start. Both paths are byte-identical
 * for any thread count; the scheduler path only changes wall time.
 */

#ifndef SEQPOINT_HARNESS_FIGURES_HH
#define SEQPOINT_HARNESS_FIGURES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/scheduler.hh"

namespace seqpoint {
namespace harness {

/** Selector order used in every figure (SeqPoint last). */
const std::vector<core::SelectorKind> &selectorOrder();

/**
 * One configuration's column of the figure grid: the epoch actuals
 * plus every selector's projections onto this configuration, in
 * selectorOrder() order.
 */
struct FigureColumn {
    std::string config;              ///< Configuration name.
    double actualSec = 0.0;          ///< Actual epoch training time.
    double actualThroughput = 0.0;   ///< Actual samples/s.
    std::vector<double> projectedSec;        ///< Per selector.
    std::vector<double> projectedThroughput; ///< Per selector.
};

/**
 * A full fig11/15-style sweep over the Table II configurations:
 * every number both the time-error and the speedup-error grids need,
 * plus the selections (built on the reference configuration) whose
 * diagnostics the figures print.
 */
struct FigureSweep {
    std::vector<FigureColumn> columns; ///< Table II config order.
    std::map<core::SelectorKind, core::SeqPointSet>
        selections;                    ///< Built on configs[0].

    /**
     * Bit-exact equality of every measured and projected value and
     * of the selections (the scheduler-vs-serial identity guard):
     * doubles compare as bit patterns, so a NaN equals its own copy
     * and -0.0 differs from 0.0.
     */
    bool identicalTo(const FigureSweep &other) const;
};

/**
 * Run the sweep serially: one Experiment, one configuration after
 * another -- the legacy figure pipeline and the identity/speedup
 * baseline. Matching the legacy default, the per-SL profiling sweeps
 * inside each epoch still use `profile_threads` workers (0 = the
 * hardware concurrency); the value never changes results, only wall
 * time.
 *
 * @param make Workload factory.
 * @param profile_threads Inner profiling-sweep width (0 = hardware).
 */
FigureSweep runFigureSweepSerial(const WorkloadFactory &make,
                                 unsigned profile_threads = 0);

/**
 * Run the sweep on the scheduler with a shared cold start: the
 * reference configuration's epoch, profiles and selections are
 * frozen once into a ModelSnapshot (inner-parallel
 * profiling sweep), then every configuration's column is evaluated as
 * an ExperimentScheduler cell seeded from that snapshot. The
 * reference cell replays entirely from the snapshot; other cells pay
 * only their own configuration's state. Byte-identical to
 * runFigureSweepSerial() for any thread count.
 *
 * With a registry, every snapshot (the reference one and each cell's
 * own configuration) is acquired through it instead of built inline:
 * anything the registry already holds -- from an earlier sweep in
 * this process or, with a store directory, from another bench binary
 * or CI run -- is reused, and every build is left behind for later
 * consumers. Still byte-identical; only wall time changes.
 *
 * @param make Workload factory.
 * @param threads Scheduler width; 0 picks the hardware concurrency.
 * @param registry Optional snapshot registry.
 * @param cell_retries Extra attempts for a failing cell (fault
 *                     containment); a retry that survives its fault
 *                     converges to the clean result.
 * @throws RecoverableError (CellFailed) carrying the first failed
 *         cell's error, in cell order, when a cell still fails after
 *         its retries -- never a sweep with a default-filled column.
 */
FigureSweep runFigureSweepScheduled(const WorkloadFactory &make,
                                    unsigned threads = 0,
                                    SnapshotRegistry *registry = nullptr,
                                    unsigned cell_retries = 0);

/**
 * The fig13/14-style per-SL sensitivity series: iteration times for
 * a sweep of SLs on every Table II configuration.
 */
struct SensitivitySweep {
    std::vector<int64_t> sls;          ///< The swept SLs, ascending.
    std::vector<std::string> configs;  ///< Config names, table order.
    /** iterSec[c][s]: iteration time of configs[c] at sls[s]. */
    std::vector<std::vector<double>> iterSec;
    unsigned batchSize = 0;            ///< Workload batch size.

    /**
     * Bit-exact equality (scheduler-vs-serial identity guard), with
     * doubles compared as bit patterns like FigureSweep::identicalTo.
     */
    bool identicalTo(const SensitivitySweep &other) const;
};

/**
 * Run the sensitivity series serially inside one Experiment, warming
 * each configuration's sweep on `profile_threads` workers first (the
 * legacy pipeline's behaviour; 0 = hardware concurrency, never
 * changes results).
 *
 * @param make Workload factory.
 * @param sl_lo Sweep start.
 * @param sl_hi Sweep end (inclusive).
 * @param step Sweep step.
 * @param profile_threads Inner profiling-sweep width (0 = hardware).
 */
SensitivitySweep runSensitivitySweepSerial(const WorkloadFactory &make,
                                           int64_t sl_lo, int64_t sl_hi,
                                           int64_t step,
                                           unsigned profile_threads = 0);

/**
 * Run the sensitivity series as one scheduler cell per configuration
 * (no epoch and no snapshot needed: cells only profile the swept
 * SLs). Byte-identical to the serial path for any thread count.
 *
 * With a registry, each cell seeds from the registry's *cached*
 * snapshot for its own (workload, configuration) -- typically left
 * behind by a sibling figure sweep -- and profiles only the swept
 * SLs the snapshot's epoch did not cover. Lookup-only: a sensitivity
 * sweep never pays an epoch it does not need, so a cold registry
 * changes nothing. Still byte-identical either way.
 *
 * @param make Workload factory.
 * @param sl_lo Sweep start.
 * @param sl_hi Sweep end (inclusive).
 * @param step Sweep step.
 * @param threads Scheduler width; 0 picks the hardware concurrency.
 * @param registry Optional snapshot registry.
 * @param cell_retries Extra attempts for a failing cell (fault
 *                     containment); a retry that survives its fault
 *                     converges to the clean result.
 * @throws RecoverableError (CellFailed) carrying the first failed
 *         cell's error, in cell order, when a cell still fails after
 *         its retries -- never a sweep with a default-filled column.
 */
SensitivitySweep
runSensitivitySweepScheduled(const WorkloadFactory &make, int64_t sl_lo,
                             int64_t sl_hi, int64_t step,
                             unsigned threads = 0,
                             SnapshotRegistry *registry = nullptr,
                             unsigned cell_retries = 0);

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_FIGURES_HH
