/**
 * @file
 * Shared cold-start state for experiment sweeps. Building the
 * simulation state for one (workload, configuration) pair is the
 * expensive part of every sweep cell: the model is lowered per unique
 * SL, every GEMM shape is autotuned, every unique kernel is timed.
 * All of that is a pure function of (workload, configuration), so a
 * sweep can pay it once, freeze the result in a ModelSnapshot, and
 * hand the snapshot read-only to every cell that evaluates the same
 * pair -- seeded cells produce bit-identical results to cold ones.
 *
 * Kernel timings and tile choices are not frozen: the network's
 * shared nn::ResolvedOps table tunes and times each op once per
 * process, so a seeded cell that profiles an SL its snapshot lacks
 * resolves that SL's ops there (bit-identically, since tuning and
 * the timing model are pure).
 */

#ifndef SEQPOINT_HARNESS_SNAPSHOT_HH
#define SEQPOINT_HARNESS_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/baselines.hh"
#include "core/seqpoint.hh"
#include "core/sl_log.hh"
#include "data/batching.hh"
#include "profiler/iteration_profile.hh"
#include "profiler/trainer.hh"
#include "sim/gpu_config.hh"

namespace seqpoint {
namespace harness {

/**
 * Immutable snapshot of one Experiment's fully warmed per-config
 * state: the lowered-and-executed per-SL iteration profiles, the
 * epoch log, and the selector sets built on it.
 *
 * Captured by Experiment::snapshot() and consumed by
 * Experiment::seedFrom() (directly or via ExperimentScheduler's
 * snapshot-aware cells). The config-dependent parts only ever seed an
 * equal GpuConfig -- profiles and the epoch are functions of the
 * configuration and must not cross configs; seeding
 * a different config simply leaves the new state cold. Share it via
 * shared_ptr<const ModelSnapshot>; consumers copy what they need, so
 * one snapshot can seed any number of concurrent cells.
 */
struct ModelSnapshot {
    std::string workload; ///< Workload name the snapshot belongs to.
    sim::GpuConfig config; ///< Configuration it was built on.

    /**
     * The run parameters the snapshotted state is a function of,
     * beyond the workload name: Experiment::seedFrom() refuses a
     * snapshot whose parameters differ from its own workload's, so a
     * same-name variant (different seed, batch size, policy, eval
     * cost, dataset or SeqPoint tunables) can never be seeded with
     * another run's results.
     */
    std::string dataset;             ///< Dataset name.
    unsigned batchSize = 0;          ///< Samples per batch.
    data::BatchPolicy policy =
        data::BatchPolicy::Shuffled; ///< Epoch iteration order.
    uint64_t seed = 0;               ///< Run seed.
    double evalCostMultiplier = 1.0; ///< Eval cost vs forward pass.
    core::SeqPointOptions opts;      ///< Selection tunables.

    /** Per-SL training profiles (the digested lowered kernels). */
    std::map<int64_t, prof::IterationProfile> trainProfiles;

    /** Per-SL inference (eval-phase) profiles. */
    std::map<int64_t, prof::IterationProfile> inferProfiles;

    /** The full-epoch training log on `config`. */
    prof::TrainLog log;

    /** Per-unique-SL statistics of the epoch. */
    core::SlStats stats;

    /** Every selector's representative set built on `config`. */
    std::map<core::SelectorKind, core::SeqPointSet> selections;
};

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_SNAPSHOT_HH
