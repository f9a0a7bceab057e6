/**
 * @file
 * Epoch trainer implementation.
 */

#include "profiler/trainer.hh"

#include <algorithm>

#include "common/cancel.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace seqpoint {
namespace prof {

double
TrainLog::totalSec(bool include_autotune) const
{
    double t = trainSec + evalSec;
    if (include_autotune)
        t += autotuneSec;
    return t;
}

double
TrainLog::throughput(unsigned batch) const
{
    if (trainSec <= 0.0)
        return 0.0;
    return static_cast<double>(iterations.size()) *
        static_cast<double>(batch) / trainSec;
}

bool
TrainLog::identicalTo(const TrainLog &other) const
{
    if (iterations.size() != other.iterations.size() ||
        trainSec != other.trainSec || evalSec != other.evalSec ||
        !(counters == other.counters))
        return false;
    for (size_t i = 0; i < iterations.size(); ++i) {
        if (iterations[i].seqLen != other.iterations[i].seqLen ||
            iterations[i].timeSec != other.iterations[i].timeSec)
            return false;
    }
    return true;
}

void
encodeTrainLog(ByteWriter &w, const TrainLog &log)
{
    w.u64(log.iterations.size());
    for (const IterationLog &it : log.iterations) {
        w.i64(it.seqLen);
        w.f64(it.timeSec);
    }
    w.f64(log.trainSec);
    w.f64(log.evalSec);
    w.f64(log.autotuneSec);
    sim::encodeCounters(w, log.counters);
}

TrainLog
decodeTrainLog(ByteReader &r)
{
    TrainLog log;
    uint64_t n = r.u64();
    // 16 bytes per iteration: an absurd count means a corrupt length
    // field, so reject it before reserve() tries to honour it.
    if (n > r.remaining() / 16) {
        r.fail(csprintf("%s: iteration count %llu exceeds the payload",
                        r.what().c_str(),
                        static_cast<unsigned long long>(n)));
    }
    log.iterations.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
        IterationLog it;
        it.seqLen = r.i64();
        it.timeSec = r.f64();
        log.iterations.push_back(it);
    }
    log.trainSec = r.f64();
    log.evalSec = r.f64();
    log.autotuneSec = r.f64();
    log.counters = sim::decodeCounters(r);
    return log;
}

namespace {

/** Unique batch SLs in ascending order. */
std::vector<int64_t>
uniqueSls(const std::vector<data::Batch> &batches)
{
    std::vector<int64_t> sls;
    sls.reserve(batches.size());
    for (const data::Batch &b : batches)
        sls.push_back(b.seqLen);
    std::sort(sls.begin(), sls.end());
    sls.erase(std::unique(sls.begin(), sls.end()), sls.end());
    return sls;
}

/** Index of sl in the sorted unique-SL vector. */
std::size_t
slIndex(const std::vector<int64_t> &sls, int64_t sl)
{
    return static_cast<std::size_t>(
        std::lower_bound(sls.begin(), sls.end(), sl) - sls.begin());
}

} // anonymous namespace

std::vector<data::Batch>
epochBatchSchedule(const data::Dataset &dataset, const TrainConfig &cfg,
                   Rng *rng_out)
{
    Rng rng(cfg.seed, 0xba7c);
    std::vector<data::Batch> batches = data::makeEpochBatches(
        dataset.trainLens, cfg.batchSize, cfg.policy, rng);
    if (rng_out)
        *rng_out = rng;
    return batches;
}

TrainLog
runTrainingEpoch(Profiler &profiler, const data::Dataset &dataset,
                 const TrainConfig &cfg)
{
    fatal_if(dataset.trainLens.empty(), "runTrainingEpoch: empty dataset");
    fatal_if(profiler.batchSize() != cfg.batchSize,
             "runTrainingEpoch: profiler batch %u != config batch %u",
             profiler.batchSize(), cfg.batchSize);
    fatal_if(profiler.autotuner().selectionMode() != cfg.tunerMode,
             "runTrainingEpoch: profiler/config autotuner-mode mismatch");

    // The epoch RNG continues from training-phase batching into the
    // evaluation phase, so take it back out of the schedule builder.
    Rng rng;
    std::vector<data::Batch> batches =
        epochBatchSchedule(dataset, cfg, &rng);

    bool do_eval = cfg.runEval && !dataset.evalLens.empty() &&
        dataset.evalLens.size() >= cfg.batchSize;
    std::vector<data::Batch> eval_batches;
    if (do_eval) {
        eval_batches = data::makeEpochBatches(
            dataset.evalLens, cfg.batchSize,
            data::BatchPolicy::Bucketed, rng);
    }

    // One-time autotune cost newly incurred by this epoch: with a
    // fresh profiler the delta is the tuner's whole cost, matching
    // the historical accounting.
    double tune_before = profiler.autotuner().tuningCostSec();

    // Fill the per-SL memo up front: each unique SL is profiled
    // exactly once (in ascending order, on the sweep pool when
    // profileThreads > 1). The assembly below then runs entirely out
    // of the memo; because profiles are pure functions of SL the log
    // is bit-identical to profiling in batch order.
    std::vector<int64_t> train_sls = uniqueSls(batches);
    profiler.warmTrainProfiles(train_sls, cfg.profileThreads);
    std::vector<int64_t> eval_sls;
    if (do_eval) {
        eval_sls = uniqueSls(eval_batches);
        profiler.warmInferProfiles(eval_sls, cfg.profileThreads);
    }

    TrainLog log;
    log.iterations.reserve(batches.size());

    // Resolve each unique SL's profile once into a flat table, then
    // replay the SL schedule as table lookups. Accumulation visits
    // the values in execution order, so the totals match summing
    // per-iteration profiles in batch order bit for bit. The resolve
    // loops poll for cancellation; the replay loops are pure table
    // lookups.
    std::vector<const IterationProfile *> table(train_sls.size());
    for (std::size_t i = 0; i < train_sls.size(); ++i) {
        cancelCheckpoint("trainer.resolve");
        table[i] = &profiler.profileIteration(train_sls[i]);
    }

    for (const data::Batch &b : batches) {
        const IterationProfile &p = *table[slIndex(train_sls, b.seqLen)];
        log.iterations.push_back(IterationLog{b.seqLen, p.timeSec});
        log.trainSec += p.timeSec;
        log.counters += p.counters;
    }

    if (do_eval) {
        std::vector<const IterationProfile *> etab(eval_sls.size());
        for (std::size_t i = 0; i < eval_sls.size(); ++i) {
            cancelCheckpoint("trainer.resolve");
            etab[i] = &profiler.profileInference(eval_sls[i]);
        }
        for (const data::Batch &b : eval_batches) {
            const IterationProfile &p = *etab[slIndex(eval_sls, b.seqLen)];
            log.evalSec += p.timeSec * cfg.evalCostMultiplier;
        }
    }

    log.autotuneSec = profiler.autotuner().tuningCostSec() - tune_before;
    return log;
}

TrainLog
runTrainingEpoch(const sim::Gpu &gpu, const nn::Model &model,
                 const data::Dataset &dataset, const TrainConfig &cfg)
{
    nn::Autotuner tuner(cfg.tunerMode, &gpu);
    Profiler profiler(gpu, model, tuner, cfg.batchSize);
    return runTrainingEpoch(profiler, dataset, cfg);
}

} // namespace prof
} // namespace seqpoint
