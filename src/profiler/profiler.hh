/**
 * @file
 * The Profiler binds a model to a device and measures iterations at
 * given sequence lengths. Because iteration behaviour is a pure
 * function of SL for a fixed model/batch/device (the paper's key
 * observation 4), profiles are memoized per SL; warmTrainProfiles()
 * fills the memo for a whole SL sweep in parallel with bit-identical
 * results to the serial path.
 */

#ifndef SEQPOINT_PROFILER_PROFILER_HH
#define SEQPOINT_PROFILER_PROFILER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "nn/autotune.hh"
#include "nn/model.hh"
#include "nn/resolved_ops.hh"
#include "profiler/iteration_profile.hh"
#include "sim/gpu.hh"

namespace seqpoint {
namespace prof {

/**
 * Measures training iterations of one model on one device.
 *
 * A profile is a fold over the model's memoized program for the SL
 * (nn::Model::program()), which is shared by every profiler of the
 * model and of every share() of it, so a second device -- or a
 * second workload of the same network -- re-lowers nothing. Ops are
 * resolved and timed in the network's process-wide nn::ResolvedOps
 * table for this profiler's (device configuration, tuner mode)
 * (nn::Model::resolvedOps()): the first profiler whose programs use
 * an op fills its slot -- the table's own probe picks the tile,
 * sim::timeKernel() on the configuration gives the per-launch timing
 * -- and every later profiler of any workload of the network reuses
 * it. The profiler keeps, per op id, the address of each slot its
 * programs use (null until it has remembered the op), and folds
 * programs out of the slots with sim::accountLaunch(),
 * the arithmetic Gpu::executeAll() uses. Profiles are bit-identical
 * to executing Model::lowerIteration() on the device, because tile
 * choice and timing are pure functions of (op, configuration).
 */
class Profiler
{
  public:
    /**
     * Construct a profiler.
     *
     * Lifetimes: the gpu, model and tuner must outlive the profiler.
     * A Measured tuner must be bound to a device configured like
     * `gpu` (sim::sameEncodedConfig(); panics otherwise): the
     * network's table for that configuration tunes for it.
     *
     * @param gpu Device to execute on.
     * @param model Network to lower.
     * @param tuner Autotuner shared across the run.
     * @param batch Batch size used for every iteration.
     */
    Profiler(const sim::Gpu &gpu, const nn::Model &model,
             nn::Autotuner &tuner, unsigned batch);

    /**
     * Profile a training iteration at a sequence length (memoized).
     *
     * @param seq_len Sequence length.
     * @return Aggregate profile (reference valid until destruction).
     */
    const IterationProfile &profileIteration(int64_t seq_len);

    /**
     * Profile with per-kernel detail (not memoized; heavier).
     *
     * @param seq_len Sequence length.
     */
    DetailedProfile profileIterationDetailed(int64_t seq_len) const;

    /**
     * Profile a forward-only (inference/evaluation) pass (memoized).
     *
     * @param seq_len Sequence length.
     */
    const IterationProfile &profileInference(int64_t seq_len);

    /**
     * Fill the training-profile memo for every SL in `sls`. With more
     * than one thread and more than one uncached SL, the per-SL
     * lowering, the timing of new ops and the per-SL folds each fan
     * out on the process-wide pool (ThreadPool::shared(), capped at
     * `threads`); the memo is then populated serially in ascending-SL
     * order, so the cache contents -- and every later
     * profileIteration() result -- are bit-identical to profiling the
     * same SLs serially.
     *
     * @param sls Sequence lengths (duplicates and cached SLs are
     *            skipped).
     * @param threads Sweep width; <= 1 profiles serially.
     */
    void warmTrainProfiles(const std::vector<int64_t> &sls,
                           unsigned threads);

    /** Memo fill for inference profiles; see warmTrainProfiles(). */
    void warmInferProfiles(const std::vector<int64_t> &sls,
                           unsigned threads);

    /** @return A copy of the per-SL training-profile memo. */
    std::map<int64_t, IterationProfile> trainProfileSnapshot() const
    {
        return trainCache;
    }

    /** @return A copy of the per-SL inference-profile memo. */
    std::map<int64_t, IterationProfile> inferProfileSnapshot() const
    {
        return inferCache;
    }

    /**
     * Pre-populate the training memo from profiles snapshotted on an
     * equally configured (device, model, batch) profiler. Existing
     * entries win. Profiles are pure functions of SL, so a seeded
     * memo serves results bit-identical to profiling from scratch.
     *
     * @param profiles Entries from trainProfileSnapshot().
     */
    void seedTrainProfiles(
        const std::map<int64_t, IterationProfile> &profiles);

    /** Seed the inference memo; see seedTrainProfiles(). */
    void seedInferProfiles(
        const std::map<int64_t, IterationProfile> &profiles);

    /** @return The device this profiler executes on. */
    const sim::Gpu &gpu() const { return gpu_; }

    /** @return The autotuner shared across this profiler's runs. */
    const nn::Autotuner &autotuner() const { return tuner; }

    /** @return The configured batch size. */
    unsigned batchSize() const { return batch; }

    /** @return Number of memoized training profiles. */
    size_t cacheSize() const { return trainCache.size(); }

  private:
    const sim::Gpu &gpu_;
    const nn::Model &model;
    nn::Autotuner &tuner;
    unsigned batch;

    std::map<int64_t, IterationProfile> trainCache;
    std::map<int64_t, IterationProfile> inferCache;

    /** The network's table for our (configuration, tuner mode),
     *  acquired by the first sweep that times an op. */
    std::shared_ptr<nn::ResolvedOps> table;

    /** Indexed by op id: the op's published slot in `table`, or null
     *  until a program of ours has used the op. */
    std::vector<const nn::ResolvedOp *> opSlot;

    const IterationProfile &memoized(
        int64_t seq_len, bool train,
        std::map<int64_t, IterationProfile> &cache);

    void timeNewOps(const std::vector<const nn::Program *> &progs,
                    unsigned threads);

    IterationProfile fold(int64_t seq_len,
                          const nn::Program &prog) const;

    void warmProfiles(const std::vector<int64_t> &sls, unsigned threads,
                      bool train,
                      std::map<int64_t, IterationProfile> &cache);
};

} // namespace prof
} // namespace seqpoint

#endif // SEQPOINT_PROFILER_PROFILER_HH
