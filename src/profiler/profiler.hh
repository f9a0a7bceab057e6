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
#include <vector>

#include "nn/autotune.hh"
#include "nn/model.hh"
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
 * second workload of the same network -- re-lowers nothing. Each
 * profiler resolves an op the first time one of its programs uses it
 * -- the tuner picks the tile, sim::timeKernel() on the device's
 * configuration gives the per-launch timing -- into a dense table of
 * the ops its programs use, reached through a four-byte index per op
 * id (op ids are the shared memo's, which numbers every op any of its
 * users interned), and folds programs out of that table with
 * sim::accountLaunch(), the arithmetic Gpu::executeAll() uses. That
 * table is the profiler's only per-device timing memo: the device's
 * timing cache serves Gpu::execute()/executeAll() alone. Profiles are
 * bit-identical to executing Model::lowerIteration() on the device,
 * because a cache hit returns exactly what timeKernel() computes.
 */
class Profiler
{
  public:
    /**
     * Construct a profiler.
     *
     * Lifetimes: the gpu, model and tuner must outlive the profiler.
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
    /** One op's per-launch timing on this profiler's device. */
    struct OpTiming {
        sim::KernelTiming timing;  ///< Per-launch timing.
        sim::KernelClass klass{};  ///< Class of the resolved kernel.
    };

    const sim::Gpu &gpu_;
    const nn::Model &model;
    nn::Autotuner &tuner;
    unsigned batch;

    std::map<int64_t, IterationProfile> trainCache;
    std::map<int64_t, IterationProfile> inferCache;

    /** Indexed by op id: 1 + the op's slot in opTimings, or 0 until
     *  a program of ours has used the op and it has been timed. */
    std::vector<uint32_t> opSlot;

    /** One timing per op our programs use, in first-use order. */
    std::vector<OpTiming> opTimings;

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
