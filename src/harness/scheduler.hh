/**
 * @file
 * Parallel experiment scheduler: runs independent
 * (workload x configuration) sweep cells concurrently on the
 * process-wide ThreadPool (capped at the sweep's configured width, so
 * repeated sweeps pay no thread setup). Every cell gets its own
 * Experiment (and
 * therefore its own per-config ConfigStates, timing caches and
 * autotuner), so cells never share mutable state; results merge in
 * deterministic workload-major, config-minor order and are
 * byte-identical to a serial sweep regardless of scheduling.
 */

#ifndef SEQPOINT_HARNESS_SCHEDULER_HH
#define SEQPOINT_HARNESS_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancel.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/rng.hh"
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
 * its result slot stays default-constructed and is marked explicitly.
 */
struct CellOutcome {
    bool failed = false;   ///< True when every attempt failed.
    unsigned attempts = 1; ///< Attempts consumed (1 = first try OK).
    std::string error;     ///< Last attempt's error ("" when OK).
};

/**
 * Wall-time breakdown of one sweep cell, for the bench reports that
 * chase scheduler regressions: where a cell's time goes -- standing
 * the Experiment up (construction + snapshot seeding) versus running
 * the cell body. Collected outside the results so identity
 * comparisons (parallel vs serial) stay exact.
 */
struct CellTiming {
    double totalSec = 0.0; ///< Construct + seed + eval, wall time.
    double setupSec = 0.0; ///< Experiment construction + seeding
                           ///< (final attempt only under retries).
    CellOutcome outcome;   ///< Fault-containment record.

    /** @return Cell-body (eval) wall time. */
    double evalSec() const { return totalSec - setupSec; }
};

/** Epoch-level measurements of one (workload, config) sweep cell. */
struct EpochCellResult {
    std::string workload;       ///< Workload name.
    std::string config;         ///< Configuration name.
    std::size_t iterations = 0; ///< Epoch iteration count.
    double trainSec = 0.0;      ///< Epoch training time.
    double evalSec = 0.0;       ///< Evaluation-phase time.
    double throughput = 0.0;    ///< Training throughput (samples/s).
    sim::PerfCounters counters; ///< Summed training counters.
    bool failed = false;        ///< Cell failed after its retries.
    std::string error;          ///< Terminal error ("" when OK).
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

    /** @return Extra attempts granted to a failing cell. */
    unsigned retriesPerCell() const { return cellRetries; }

    /**
     * Delay before each retry of a failing cell (a real store race or
     * NFS hiccup needs a moment to clear; injected faults in tests
     * want 0), with optional deterministic jitter so cells felled by
     * the same fault storm don't all hammer the registry again on the
     * same beat.
     *
     * @param seconds Base sleep before retry attempt n+1, in seconds.
     * @param jitter_frac Jitter amplitude as a fraction of `seconds`:
     *        each (cell, attempt) sleeps seconds * u with u uniform
     *        in [1-j, 1+j], derived from `seed` and the cell's
     *        coordinates -- reproducible across runs and thread
     *        counts, but decorrelated across cells. 0 disables.
     * @param seed Jitter derivation seed.
     */
    void
    setRetryBackoff(double seconds, double jitter_frac = 0.0,
                    uint64_t seed = 0x5eedba11u)
    {
        backoffSec = seconds;
        jitterFrac = jitter_frac;
        jitterSeed = seed;
    }

    /** @return Base sleep before each retry, in seconds. */
    double retryBackoffSec() const { return backoffSec; }

    /** @return Jitter amplitude fraction (0 = no jitter). */
    double retryJitterFrac() const { return jitterFrac; }

    /**
     * The actual (jittered) sleep before retry `attempt` of cell
     * (w, c): a pure function of the configured backoff, jitter seed
     * and the cell coordinates. Exposed so tests can assert
     * reproducibility without racing real clocks.
     */
    double
    retryDelaySec(std::size_t w, std::size_t c, unsigned attempt) const
    {
        if (backoffSec <= 0.0)
            return 0.0;
        if (jitterFrac <= 0.0)
            return backoffSec;
        // One independent PCG stream per (cell, attempt): fully
        // deterministic, and adjacent cells land on decorrelated
        // points of [1-j, 1+j].
        Rng rng(jitterSeed,
                (static_cast<uint64_t>(w) << 42) ^
                    (static_cast<uint64_t>(c) << 21) ^ attempt);
        double u = rng.uniformDouble(1.0 - jitterFrac,
                                     1.0 + jitterFrac);
        return std::max(0.0, backoffSec * u);
    }

    /**
     * Per-workload shared cold-start snapshots for mapCells(): either
     * empty (no sharing) or one entry per workload row, where entry w
     * (null allowed) seeds every cell of row w via
     * Experiment::seedFrom(). Cells whose configuration matches the
     * snapshot skip the model-lowering/autotune/profile cold start;
     * all other cells run cold. Results stay byte-identical either
     * way, so sharing only changes wall time.
     */
    using Snapshots =
        std::vector<std::shared_ptr<const ModelSnapshot>>;

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
     *             Experiment. Must not touch shared mutable state.
     * @param snapshots Per-cell snapshot source, or null for none.
     * @param timings Optional per-cell wall-time breakdown out
     *                (resized to the cell count; same indexing as
     *                the results). Never affects the results.
     * @return Results in workload-major, config-minor order.
     */
    template <typename R>
    std::vector<R>
    mapCells(const std::vector<WorkloadFactory> &workloads,
             const std::vector<sim::GpuConfig> &configs,
             const std::function<R(Experiment &,
                                   const sim::GpuConfig &)> &eval,
             const SnapshotProvider &snapshots,
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
                    backoffSleep(retryDelaySec(w, c, attempt));
                }
                if (timings) {
                    (*timings)[cell].totalSec = wallNow() - t0;
                    (*timings)[cell].setupSec = setup_sec;
                    (*timings)[cell].outcome = std::move(outcome);
                }
            });
        return results;
    }

    /**
     * Evaluate `eval` on every cell with per-workload-row snapshots:
     * either empty (no sharing) or one entry per workload row, where
     * entry w (null allowed) seeds every cell of row w. Cells whose
     * configuration matches their row snapshot skip the cold start;
     * all other cells run cold. Byte-identical either way.
     */
    template <typename R>
    std::vector<R>
    mapCells(const std::vector<WorkloadFactory> &workloads,
             const std::vector<sim::GpuConfig> &configs,
             const std::function<R(Experiment &,
                                   const sim::GpuConfig &)> &eval,
             const Snapshots &snapshots = {},
             std::vector<CellTiming> *timings = nullptr) const
    {
        panic_if(!snapshots.empty() &&
                     snapshots.size() != workloads.size(),
                 "mapCells: %zu snapshot(s) for %zu workload row(s)",
                 snapshots.size(), workloads.size());
        SnapshotProvider provider;
        if (!snapshots.empty()) {
            provider = [&snapshots](std::size_t w,
                                    const sim::GpuConfig &,
                                    Experiment &) {
                return snapshots[w];
            };
        }
        return mapCells<R>(workloads, configs, eval, provider, timings);
    }

    /**
     * Evaluate `eval` on every cell with the registry as the snapshot
     * source: each cell acquires (get-or-build, single-flight) the
     * snapshot for its own (workload, configuration) identity, so a
     * sweep both auto-warms from earlier builds -- in-process or, with
     * a store directory, from earlier bench binaries and CI runs --
     * and leaves every cell's cold start behind for later consumers.
     * Byte-identical to the registry-free sweep at any thread count.
     *
     * @param workloads Workload factories, one per sweep row.
     * @param configs Hardware configurations, one per sweep column.
     * @param eval Cell body (see above).
     * @param registry Snapshot registry (shared; thread-safe).
     * @return Results in workload-major, config-minor order.
     */
    template <typename R>
    std::vector<R>
    mapCells(const std::vector<WorkloadFactory> &workloads,
             const std::vector<sim::GpuConfig> &configs,
             const std::function<R(Experiment &,
                                   const sim::GpuConfig &)> &eval,
             SnapshotRegistry &registry,
             std::vector<CellTiming> *timings = nullptr) const
    {
        return mapCells<R>(
            workloads, configs, eval,
            SnapshotProvider([&registry, &workloads](
                                 std::size_t w,
                                 const sim::GpuConfig &cfg,
                                 Experiment &exp) {
                // Key from the cell's own workload instance -- a
                // cache hit costs no second workload build.
                return registry.acquire(exp.workload(), workloads[w],
                                        cfg, 1, exp.options());
            }),
            timings);
    }

    /**
     * Run the standard epoch sweep: one full training epoch per
     * (workload x config) cell, epoch-level measurements out.
     *
     * @param workloads Workload factories.
     * @param configs Hardware configurations.
     * @param snapshots Optional per-workload cold-start snapshots.
     * @param timings Optional per-cell wall-time breakdown out.
     * @return Cell results in workload-major, config-minor order.
     */
    std::vector<EpochCellResult>
    epochSweep(const std::vector<WorkloadFactory> &workloads,
               const std::vector<sim::GpuConfig> &configs,
               const Snapshots &snapshots = {},
               std::vector<CellTiming> *timings = nullptr) const;

    /**
     * Registry-aware epoch sweep: every cell acquires its own
     * (workload, configuration) snapshot from the registry -- reusing
     * any cached/persisted cold start and building (and persisting)
     * the missing ones. Byte-identical to the registry-free sweep.
     *
     * @param workloads Workload factories.
     * @param configs Hardware configurations.
     * @param registry Snapshot registry (shared; thread-safe).
     * @param timings Optional per-cell wall-time breakdown out.
     * @return Cell results in workload-major, config-minor order.
     */
    std::vector<EpochCellResult>
    epochSweep(const std::vector<WorkloadFactory> &workloads,
               const std::vector<sim::GpuConfig> &configs,
               SnapshotRegistry &registry,
               std::vector<CellTiming> *timings = nullptr) const;

  private:
    unsigned numThreads;
    unsigned cellRetries = 0;
    double backoffSec = 0.0;
    double jitterFrac = 0.0;
    uint64_t jitterSeed = 0x5eedba11u;

    /** Monotonic wall clock in seconds (cell-timing collection). */
    static double wallNow();

    /** Sleep `seconds` before a retry (no-op for 0). */
    static void backoffSleep(double seconds);

    /**
     * Invoke fn(cell, w, c) for every cell, across the pool when
     * more than one thread is configured.
     */
    void forEachCell(
        std::size_t num_workloads, std::size_t num_configs,
        const std::function<void(std::size_t, std::size_t, std::size_t)>
            &fn) const;
};

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_SCHEDULER_HH
