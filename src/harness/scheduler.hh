/**
 * @file
 * Parallel experiment scheduler: runs independent
 * (workload x configuration) sweep cells concurrently on the
 * process-wide ThreadPool (capped at the sweep's configured width, so
 * repeated sweeps pay no thread setup). Every cell gets its own
 * Experiment, and with it its own per-config devices and autotuners.
 * Cells of one network do share that network's process-lifetime
 * nn::Model: its per-SL program memo and its resolved-op table per
 * (configuration, tuner mode). Both are filled under their own
 * synchronisation, and each entry is a pure function of its key
 * (the SL; the configuration and op), so whichever cell fills an
 * entry first writes what any other cell would have written. Results
 * merge in deterministic workload-major, config-minor order and are
 * byte-identical to a serial sweep regardless of scheduling.
 */

#ifndef SEQPOINT_HARNESS_SCHEDULER_HH
#define SEQPOINT_HARNESS_SCHEDULER_HH

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancel.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/snapshot.hh"
#include "harness/snapshot_registry.hh"

namespace seqpoint {
namespace harness {

/**
 * Terminal outcome of one sweep cell under fault containment: how
 * many attempts the cell consumed and, when even the last one failed,
 * the error that stopped it. A failed cell never aborts the sweep --
 * its result slot stays default-constructed, so a caller that reads
 * results must check this record first.
 */
struct CellOutcome {
    bool failed = false;   ///< True when every attempt failed.
    unsigned attempts = 1; ///< Attempts consumed (1 = first try OK).
    std::string error;     ///< Last attempt's error ("" when OK).
};

/**
 * Per-cell record of one sweep: its fault-containment outcome and
 * where its wall time went -- standing the Experiment up
 * (construction + snapshot seeding) versus running the cell body.
 * Collected outside the results so identity comparisons (parallel vs
 * serial) stay exact.
 */
struct CellTiming {
    double totalSec = 0.0; ///< Construct + seed + eval, wall time.
    double setupSec = 0.0; ///< Experiment construction + seeding
                           ///< (final attempt only under retries).
    CellOutcome outcome;   ///< Fault-containment record.

    /** @return Cell-body (eval) wall time. */
    double evalSec() const { return totalSec - setupSec; }
};

/**
 * Schedules independent sweep cells across a thread pool.
 *
 * Cell (w, c) evaluates workload w on configuration c inside an
 * Experiment constructed for that cell alone. Determinism: cell
 * evaluation is a pure function of (workload factory, config), so
 * the result vector -- indexed w * numConfigs + c -- is identical
 * for any thread count, including 1 (the serial sweep).
 */
class ExperimentScheduler
{
  public:
    /**
     * Construct a scheduler.
     *
     * @param threads Concurrent cells; 0 picks the hardware
     *                concurrency, 1 runs the serial sweep.
     */
    explicit ExperimentScheduler(unsigned threads = 0);

    /** @return Configured cell concurrency. */
    unsigned threads() const { return numThreads; }

    /**
     * Retries granted to a failing cell: a cell whose setup or body
     * raises a recoverable failure is re-run from scratch (fresh
     * Experiment, fresh snapshot seeding) up to this many extra
     * times before it is recorded as failed. Cell evaluation is a
     * pure function of (factory, config), so a retry that survives
     * its fault converges to the exact result of a clean run. The
     * default 0 records the first failure immediately; either way the
     * rest of the sweep always completes.
     *
     * @param retries Extra attempts after the first.
     */
    void setCellRetries(unsigned retries) { cellRetries = retries; }

    /**
     * Per-cell snapshot source for mapCells(): invoked on the cell's
     * pool thread with (workload row, cell configuration, the cell's
     * freshly constructed Experiment) before the cell body runs; the
     * returned snapshot (null allowed) seeds that Experiment. The
     * Experiment is passed so providers can derive snapshot identity
     * from its workload()/options() without building a second
     * workload instance; providers must not run per-config queries
     * on it (seeding must precede the first query). Must be
     * thread-safe -- SnapshotRegistry lookups qualify (single-flight
     * per key).
     */
    using SnapshotProvider =
        std::function<std::shared_ptr<const ModelSnapshot>(
            std::size_t, const sim::GpuConfig &, Experiment &)>;

    /**
     * Evaluate `eval` on every (workload x config) cell, seeding each
     * cell from `snapshots` (per-cell source; may be null).
     *
     * @param workloads Workload factories, one per sweep row.
     * @param configs Hardware configurations, one per sweep column.
     * @param eval Cell body; runs on a pool thread with a private
     *             Experiment. Its result must be a pure function of
     *             (workload, config). Through the Experiment it
     *             fills state other cells share (the network's
     *             program memo and resolved-op tables; safe, see the
     *             file comment); it must write no other state that
     *             another cell can see.
     * @param snapshots Per-cell snapshot source, or null for none.
     * @param timings Optional per-cell record out (resized to the
     *                cell count; same indexing as the results): each
     *                cell's outcome and wall-time breakdown. A failed
     *                cell shows only here. Never affects the results.
     * @return Results in workload-major, config-minor order.
     */
    template <typename R>
    std::vector<R>
    mapCells(const std::vector<WorkloadFactory> &workloads,
             const std::vector<sim::GpuConfig> &configs,
             const std::function<R(Experiment &,
                                   const sim::GpuConfig &)> &eval,
             const SnapshotProvider &snapshots = {},
             std::vector<CellTiming> *timings = nullptr) const
    {
        // vector<bool> packs bits, so concurrent element writes from
        // pool threads would race; wrap bools in a struct instead.
        static_assert(!std::is_same_v<R, bool>,
                      "mapCells<bool> would race on vector<bool> bits");
        std::vector<R> results(workloads.size() * configs.size());
        if (timings)
            timings->assign(results.size(), CellTiming{});
        forEachCell(
            workloads.size(), configs.size(),
            [&](std::size_t cell, std::size_t w, std::size_t c) {
                // Fault containment: a cell whose setup or body
                // raises a recoverable failure is retried from
                // scratch, then recorded as failed -- never allowed
                // to take down the sweep (or, via the pool, the
                // process). Failures that are not exceptions
                // (fatal/panic) still stop everything, as they must.
                double t0 = wallNow();
                double setup_sec = 0.0;
                CellOutcome outcome;
                for (unsigned attempt = 1;; ++attempt) {
                    outcome.attempts = attempt;
                    try {
                        cancelCheckpoint("scheduler.cell");
                        faultPoint("scheduler.cell",
                                   csprintf("%zu/%zu", w, c));
                        double s0 = wallNow();
                        // One profiling thread per cell: the cells
                        // already saturate the pool.
                        Experiment exp(workloads[w]());
                        exp.setProfileThreads(1);
                        if (snapshots)
                            exp.seedFrom(snapshots(w, configs[c], exp));
                        setup_sec = wallNow() - s0;
                        results[cell] = eval(exp, configs[c]);
                        break;
                    } catch (const CancelledError &) {
                        // Cancellation is the caller's verdict on the
                        // whole sweep, not a cell fault: retrying
                        // would burn attempts on a dead request, and
                        // recording it as failed would misclassify
                        // it. Let it unwind to the sweep's caller.
                        throw;
                    } catch (const RecoverableError &e) {
                        outcome.error = e.status().toString();
                    } catch (const std::exception &e) {
                        outcome.error =
                            Status::error(ErrorCode::CellFailed,
                                          e.what())
                                .toString();
                    }
                    if (attempt > cellRetries) {
                        outcome.failed = true;
                        warn("scheduler: cell %zu/%zu failed after "
                             "%u attempt(s): %s",
                             w, c, attempt, outcome.error.c_str());
                        break;
                    }
                    warn("scheduler: cell %zu/%zu attempt %u failed "
                         "(%s); retrying",
                         w, c, attempt, outcome.error.c_str());
                }
                if (timings) {
                    (*timings)[cell].totalSec = wallNow() - t0;
                    (*timings)[cell].setupSec = setup_sec;
                    (*timings)[cell].outcome = std::move(outcome);
                }
            });
        return results;
    }

  private:
    unsigned numThreads;
    unsigned cellRetries = 0;

    /** Monotonic wall clock in seconds (cell-timing collection). */
    static double wallNow();

    /**
     * Invoke fn(cell, w, c) for every cell, across the pool when
     * more than one thread is configured.
     */
    void forEachCell(
        std::size_t num_workloads, std::size_t num_configs,
        const std::function<void(std::size_t, std::size_t, std::size_t)>
            &fn) const;
};

/**
 * A mapCells() snapshot source backed by `registry`: each cell
 * acquires (get-or-build, single-flight) the snapshot for its own
 * (workload, configuration) identity, keyed from the cell's own
 * workload instance, so a hit costs no second workload build. A
 * sweep through it both warms from earlier builds -- in this process
 * or, with a store directory, from earlier runs -- and leaves every
 * cell's cold start behind for later consumers. Byte-identical to a
 * sweep without snapshots at any thread count.
 *
 * @param registry Snapshot registry (shared; thread-safe).
 * @param workloads The sweep's workload rows (the factories builds
 *                  use). Both are captured by reference and must
 *                  outlive every mapCells() call the provider serves.
 * @return The provider.
 */
ExperimentScheduler::SnapshotProvider
registrySnapshots(SnapshotRegistry &registry,
                  const std::vector<WorkloadFactory> &workloads);

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_SCHEDULER_HH
