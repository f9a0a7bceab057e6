/**
 * @file
 * Experiment driver: the shared evaluation flow behind every table
 * and figure bench. Runs full training epochs per hardware
 * configuration ("actual" measurements), builds every selector's
 * representative set on the reference configuration, and evaluates
 * time/throughput projections against the actuals.
 */

#ifndef SEQPOINT_HARNESS_EXPERIMENT_HH
#define SEQPOINT_HARNESS_EXPERIMENT_HH

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.hh"
#include "core/kmeans.hh"
#include "core/projection.hh"
#include "core/seqpoint.hh"
#include "core/sl_log.hh"
#include "harness/snapshot.hh"
#include "harness/workloads.hh"
#include "profiler/profiler.hh"
#include "profiler/trainer.hh"
#include "sim/gpu.hh"

namespace seqpoint {
namespace harness {

/**
 * Evaluation state for one workload across hardware configurations.
 *
 * All epoch runs and per-SL profiles are memoized, so benches can ask
 * for the same quantity repeatedly at no cost.
 */
class Experiment
{
  public:
    /**
     * Construct for a workload.
     *
     * @param workload Workload to evaluate (taken by move).
     * @param opts SeqPoint algorithm tunables.
     */
    explicit Experiment(Workload workload,
                        core::SeqPointOptions opts = defaultOptions());

    /** Default SeqPoint tunables used across the reproduction. */
    static core::SeqPointOptions defaultOptions();

    /** @return The workload under evaluation. */
    const Workload &workload() const { return wl; }

    /** @return SeqPoint tunables in use. */
    const core::SeqPointOptions &options() const { return opts; }

    /**
     * Threads for per-SL profiling sweeps (1 = serial; the default
     * is the hardware concurrency). Parallel sweeps are bit-identical
     * to serial ones, so this only changes wall time. Applies to
     * every later sweep, including on configurations already queried.
     */
    void setProfileThreads(unsigned threads) { profThreads = threads; }

    /** @return Configured sweep thread count. */
    unsigned profileThreads() const { return profThreads; }

    /**
     * Pre-profile a set of SLs on a configuration using the sweep
     * thread pool; later iterTime()/iterProfile() calls for those SLs
     * are memo hits. Results are bit-identical to serial profiling.
     *
     * @param cfg Hardware configuration.
     * @param sls Sequence lengths to warm.
     */
    void warmIterProfiles(const sim::GpuConfig &cfg,
                          const std::vector<int64_t> &sls);

    /**
     * Full-epoch training log on a configuration (memoized).
     *
     * Runs through the per-config profiler shared with iterTime()/
     * iterProfile(), so the log's autotuneSec covers only tuning
     * newly incurred by the epoch: profile queries made before the
     * first epochLog() call on a config shift that (one-time) cost
     * out of the log. Iterations, times and counters are pure
     * functions of the workload and config, query order never
     * affects them, and totalSec() excludes autotune by default.
     *
     * @param cfg Hardware configuration.
     */
    const prof::TrainLog &epochLog(const sim::GpuConfig &cfg);

    /**
     * One training iteration's runtime at a sequence length on a
     * configuration (memoized per SL).
     *
     * @param cfg Hardware configuration.
     * @param sl Sequence length.
     */
    double iterTime(const sim::GpuConfig &cfg, int64_t sl);

    /**
     * Full iteration profile at a sequence length (memoized).
     *
     * @param cfg Hardware configuration.
     * @param sl Sequence length.
     */
    const prof::IterationProfile &iterProfile(const sim::GpuConfig &cfg,
                                              int64_t sl);

    /**
     * Detailed (per-kernel) profile at a sequence length.
     *
     * @param cfg Hardware configuration.
     * @param sl Sequence length.
     */
    prof::DetailedProfile iterProfileDetailed(const sim::GpuConfig &cfg,
                                              int64_t sl);

    /** Actual epoch training time (iterations only) on a config. */
    double actualTrainSec(const sim::GpuConfig &cfg);

    /** Actual training throughput (samples/s) on a config. */
    double actualThroughput(const sim::GpuConfig &cfg);

    /**
     * Epoch observations in execution order on a config (input to
     * Prior and to SlStats).
     */
    std::vector<core::IterationSample>
    epochSamples(const sim::GpuConfig &cfg);

    /** Per-unique-SL statistics of the epoch on a config (memoized). */
    const core::SlStats &slStats(const sim::GpuConfig &cfg);

    /**
     * Build one selector's representative set on a reference config.
     *
     * Selections (and the slStats they are built from) are memoized
     * per configuration, so evaluating all five selectors walks the
     * epoch log once instead of once per selector.
     *
     * @param kind Selector.
     * @param ref Reference configuration (paper: config #1).
     */
    const core::SeqPointSet &buildSelection(core::SelectorKind kind,
                                            const sim::GpuConfig &ref);

    /** All five selectors' sets on a reference config. */
    std::map<core::SelectorKind, core::SeqPointSet>
    buildAllSelections(const sim::GpuConfig &ref);

    /**
     * Projected epoch training time: selection built on `ref`,
     * representative iterations re-measured on `target`.
     */
    double projectedTrainSec(const core::SeqPointSet &sel,
                             const sim::GpuConfig &target);

    /** Projected training throughput on a target config. */
    double projectedThroughput(const core::SeqPointSet &sel,
                               const sim::GpuConfig &target);

    /**
     * Freeze this experiment's fully warmed state on a configuration
     * into an immutable, shareable snapshot. Runs the epoch and
     * builds every selection first if they have not been queried yet,
     * so this is also the one-call way to pay a sweep's cold start.
     *
     * @param cfg Configuration to snapshot.
     */
    std::shared_ptr<const ModelSnapshot>
    snapshot(const sim::GpuConfig &cfg);

    /**
     * Adopt a snapshot as shared cold-start state. When per-config
     * state is later created for a configuration equal to
     * snap->config, it is seeded with the snapshot's caches,
     * profiles, epoch log and selections instead of recomputing them;
     * all other configurations stay cold. Seeded queries are
     * bit-identical to cold ones (everything seeded is a pure
     * function of workload x configuration).
     *
     * May be called repeatedly (before the first per-config query) to
     * adopt one snapshot per configuration -- e.g. every Table II
     * cold start a snapshot store already holds; adopting two
     * snapshots for the same configuration is a misuse panic, as is
     * any workload/run-parameter mismatch.
     *
     * @param snap Snapshot from Experiment::snapshot() (shared, not
     *             copied; null drops every adopted snapshot).
     */
    void seedFrom(std::shared_ptr<const ModelSnapshot> snap);

  private:
    /** Per-configuration simulation state with stable addresses. */
    struct ConfigState {
        sim::Gpu gpu;
        nn::Autotuner tuner;
        prof::Profiler profiler;
        std::unique_ptr<prof::TrainLog> log;
        std::unique_ptr<core::SlStats> stats;
        std::map<core::SelectorKind, core::SeqPointSet> selections;

        ConfigState(const sim::GpuConfig &cfg, const nn::Model &model,
                    unsigned batch);
    };

    Workload wl;
    core::SeqPointOptions opts;
    unsigned profThreads =
        std::max(1u, std::thread::hardware_concurrency());

    /**
     * Per-configuration states, resolved by bit-for-bit equality of
     * every GpuConfig field (a handful of configs per experiment; the
     * linear scan is cheaper than formatting a signature key per
     * lookup, and the name alone would alias differently-parameterised
     * configs). Bit equality, not operator==, so that a NaN field
     * matches itself and -0.0 stays apart from 0.0, as in the query
     * service's warm key.
     */
    std::vector<std::unique_ptr<ConfigState>> states;

    /**
     * Shared cold-start states adopted via seedFrom(), at most one
     * per configuration (resolved by the same bit equality in
     * state()).
     */
    std::vector<std::shared_ptr<const ModelSnapshot>> seeds;

    ConfigState &state(const sim::GpuConfig &cfg);
};

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_EXPERIMENT_HH
