/**
 * @file
 * Reference epoch logs for the trainer's identity tests, built the
 * slow way: every batch of the epoch schedule is profiled in
 * execution order and summed, with no unique-SL replay. The trainer
 * must reproduce these logs bit for bit.
 */

#ifndef SEQPOINT_TESTS_PROFILER_REFERENCE_EPOCH_HH
#define SEQPOINT_TESTS_PROFILER_REFERENCE_EPOCH_HH

#include <cstdint>
#include <vector>

#include "data/batching.hh"
#include "profiler/trainer.hh"

namespace seqpoint {
namespace prof {

/**
 * Walk the epoch's batch schedule in execution order and sum one
 * profile per batch, as runTrainingEpoch() would without replay.
 *
 * @param dataset Dataset supplying sample sequence lengths.
 * @param cfg Training-run parameters.
 * @param tuner The tuner behind both callbacks; its total cost
 *              becomes the log's autotuneSec.
 * @param train Training profile of one batch: int64_t -> profile.
 * @param infer Inference profile of one batch: int64_t -> profile.
 */
template <typename TrainFn, typename InferFn>
TrainLog
referenceEpoch(const data::Dataset &dataset, const TrainConfig &cfg,
               const nn::Autotuner &tuner, TrainFn train, InferFn infer)
{
    Rng rng;
    std::vector<data::Batch> batches =
        epochBatchSchedule(dataset, cfg, &rng);

    TrainLog log;
    for (const data::Batch &b : batches) {
        IterationProfile p = train(b.seqLen);
        log.iterations.push_back(IterationLog{b.seqLen, p.timeSec});
        log.trainSec += p.timeSec;
        log.counters += p.counters;
    }

    // The evaluation phase continues the schedule's RNG.
    if (cfg.runEval && !dataset.evalLens.empty() &&
        dataset.evalLens.size() >= cfg.batchSize) {
        for (const data::Batch &b : data::makeEpochBatches(
                 dataset.evalLens, cfg.batchSize,
                 data::BatchPolicy::Bucketed, rng))
            log.evalSec += infer(b.seqLen).timeSec * cfg.evalCostMultiplier;
    }

    log.autotuneSec = tuner.tuningCostSec();
    return log;
}

/**
 * Profile one batch with no memo and no shared timing cache: lower
 * it through `tuner` and execute it on a fresh device.
 */
inline IterationProfile
freshDeviceProfile(const nn::Model &model, nn::Autotuner &tuner,
                   const sim::GpuConfig &cfg, unsigned batch,
                   int64_t seq_len, bool train)
{
    std::vector<sim::KernelDesc> kernels = train
        ? model.lowerIteration(batch, seq_len, tuner)
        : model.lowerInference(batch, seq_len, tuner);
    sim::Gpu gpu(cfg);
    sim::ExecutionResult res = gpu.executeAll(kernels);
    IterationProfile p;
    p.seqLen = seq_len;
    p.timeSec = res.totalSec;
    p.counters = res.counters;
    return p;
}

/**
 * The unmemoized baseline: every batch re-lowered through one shared
 * Measured tuner and executed on a fresh device.
 */
inline TrainLog
unmemoizedEpoch(const nn::Model &model, const data::Dataset &dataset,
                const TrainConfig &cfg, const sim::GpuConfig &gpu_cfg)
{
    sim::Gpu tune_gpu(gpu_cfg);
    nn::Autotuner tuner(cfg.tunerMode, &tune_gpu);
    auto profile = [&](bool train) {
        return [&, train](int64_t sl) {
            return freshDeviceProfile(model, tuner, gpu_cfg,
                                      cfg.batchSize, sl, train);
        };
    };
    return referenceEpoch(dataset, cfg, tuner, profile(true),
                          profile(false));
}

} // namespace prof
} // namespace seqpoint

#endif // SEQPOINT_TESTS_PROFILER_REFERENCE_EPOCH_HH
