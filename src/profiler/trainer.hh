/**
 * @file
 * Epoch trainer: runs one full training epoch of a model over a
 * dataset on a simulated device, producing the per-iteration log that
 * SeqPoint consumes plus the evaluation phase's time. The one-time
 * autotune phase the paper's section IV-C sets aside is not
 * accounted: training-time figures leave it out.
 */

#ifndef SEQPOINT_PROFILER_TRAINER_HH
#define SEQPOINT_PROFILER_TRAINER_HH

#include <cstdint>
#include <vector>

#include "data/batching.hh"
#include "data/dataset.hh"
#include "nn/model.hh"
#include "profiler/profiler.hh"
#include "sim/gpu.hh"

namespace seqpoint {
namespace prof {

/** Training-run parameters. */
struct TrainConfig {
    unsigned batchSize = 64;                ///< Samples per batch.
    data::BatchPolicy policy =
        data::BatchPolicy::Shuffled;        ///< Iteration order.
    bool runEval = true;                    ///< Run the eval phase.
    double evalCostMultiplier = 1.0;        ///< Eval batch cost as a
                                            ///< multiple of a forward
                                            ///< pass (beam search).
    nn::Autotuner::Mode tunerMode =
        nn::Autotuner::Mode::Measured;      ///< Autotune policy.
    uint64_t seed = 1;                      ///< Shuffle seed.

    /**
     * Threads for the per-SL profiling sweep. Values > 1 profile the
     * epoch's unique sequence lengths on a thread pool before the
     * serial log assembly; the log is bit-identical to the serial
     * path.
     */
    unsigned profileThreads = 1;
};

/** One logged training iteration. */
struct IterationLog {
    int64_t seqLen = 0;   ///< The iteration's sequence length.
    double timeSec = 0.0; ///< The iteration's wall time.
};

/** Result of one training epoch. */
struct TrainLog {
    std::vector<IterationLog> iterations; ///< In execution order.
    double trainSec = 0.0;    ///< Sum of training-iteration times.
    double evalSec = 0.0;     ///< Evaluation-phase time.
    sim::PerfCounters counters; ///< Training-iteration counters.

    /** @return Iteration count in the epoch. */
    size_t numIterations() const { return iterations.size(); }

    /** @return Epoch wall time: training plus evaluation. */
    double totalSec() const;

    /**
     * Training throughput in samples/s (the paper's speedup metric).
     *
     * @param batch Batch size the epoch ran with.
     */
    double throughput(unsigned batch) const;

    /**
     * Bit-exact equality of iteration logs, times and counters (the
     * identity guard shared by the trainer, snapshot and scheduler
     * tests): every double compares by bit pattern, so a log holding
     * a NaN is identical to its copy.
     *
     * @param other Log to compare against.
     */
    bool identicalTo(const TrainLog &other) const;
};

/**
 * Serialize an epoch log (snapshot store). Iteration order, times and
 * counters round-trip bit-exactly: decode(encode(log)).identicalTo(log)
 * always holds.
 */
void encodeTrainLog(ByteWriter &w, const TrainLog &log);

/** Decode a log written by encodeTrainLog(). */
TrainLog decodeTrainLog(ByteReader &r);

/**
 * The training-phase batch schedule an epoch with these parameters
 * will execute, without running anything: a pure function of
 * (dataset, batch size, policy, seed). runTrainingEpoch() builds its
 * training batches through this same function, so the two cannot
 * drift; callers that only need the SL schedule -- e.g. locating
 * Prior's window in the sorted first epoch -- can skip the
 * simulation cold start entirely.
 *
 * @param dataset Dataset supplying sample sequence lengths.
 * @param cfg Training-run parameters (batchSize, policy, seed).
 * @param rng_out If non-null, receives the epoch RNG's state after
 *                training-phase batching (the trainer continues it
 *                for the evaluation phase).
 * @return Training batches in execution order.
 */
std::vector<data::Batch> epochBatchSchedule(const data::Dataset &dataset,
                                            const TrainConfig &cfg,
                                            Rng *rng_out = nullptr);

/**
 * Run one training epoch.
 *
 * Each unique sequence length is profiled once and the log is
 * assembled by replaying the SL schedule as table lookups: an
 * iteration is a pure function of its SL (the paper's observation
 * 4), so O(iterations x kernels) work becomes O(unique SLs x
 * kernels) + O(iterations).
 *
 * Constructs a fresh autotuner and profiler for the run, so every
 * call re-profiles its unique SLs from scratch; ops are tuned and
 * timed only where the network's shared table for the configuration
 * lacks them (nn::Model::resolvedOps(); the device's timing cache is
 * not consulted). Prefer
 * the Profiler overload when running several epochs or sharing
 * profiles with other queries.
 *
 * @param gpu Device to run on.
 * @param model Network to train.
 * @param dataset Dataset supplying sample sequence lengths.
 * @param cfg Training-run parameters.
 * @return The epoch log.
 */
TrainLog runTrainingEpoch(const sim::Gpu &gpu, const nn::Model &model,
                          const data::Dataset &dataset,
                          const TrainConfig &cfg);

/**
 * Run one training epoch through a caller-owned profiler.
 *
 * The profiler's per-SL memo (and its autotuner) persist across
 * calls, so consecutive epochs -- and any other queries sharing the
 * profiler -- only pay for sequence lengths they have not seen
 * before. Iteration logs, times and counters are bit-identical to
 * the fresh-profiler overload.
 *
 * @param profiler Profiler bound to the device and model; its batch
 *                 size and autotuner mode must match cfg.
 * @param dataset Dataset supplying sample sequence lengths.
 * @param cfg Training-run parameters.
 * @return The epoch log.
 */
TrainLog runTrainingEpoch(Profiler &profiler,
                          const data::Dataset &dataset,
                          const TrainConfig &cfg);

} // namespace prof
} // namespace seqpoint

#endif // SEQPOINT_PROFILER_TRAINER_HH
