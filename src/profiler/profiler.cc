/**
 * @file
 * Profiler implementation.
 */

#include "profiler/profiler.hh"

#include <algorithm>

#include "common/cancel.hh"
#include "common/logging.hh"

namespace seqpoint {
namespace prof {

Profiler::Profiler(const sim::Gpu &gpu, const nn::Model &net,
                   nn::Autotuner &shared_tuner, unsigned batch_size)
    : gpu_(gpu), model(net), tuner(shared_tuner), batch(batch_size)
{
    fatal_if(batch_size == 0, "Profiler: zero batch size");
}

IterationProfile
Profiler::computeProfile(int64_t seq_len, bool train) const
{
    std::vector<sim::KernelDesc> kernels = train
        ? model.lowerIteration(batch, seq_len, tuner)
        : model.lowerInference(batch, seq_len, tuner);
    // Records-free execution: the aggregates accumulate in launch
    // order with the same arithmetic as foldRecords over a recorded
    // stream, so the profile is bit-identical to the detailed path
    // without constructing a KernelRecord per launch.
    sim::ExecutionResult res = gpu_.executeAll(kernels,
                                               /*keep_records=*/false);
    IterationProfile p;
    p.seqLen = seq_len;
    p.timeSec = res.totalSec;
    p.launches = res.launches;
    p.counters = res.counters;
    p.classTimeSec = res.classSec;
    return p;
}

const IterationProfile &
Profiler::profileIteration(int64_t seq_len)
{
    auto it = trainCache.find(seq_len);
    if (it != trainCache.end())
        return it->second;

    auto [pos, inserted] = trainCache.emplace(
        seq_len, computeProfile(seq_len, /*train=*/true));
    (void)inserted;
    return pos->second;
}

DetailedProfile
Profiler::profileIterationDetailed(int64_t seq_len) const
{
    std::vector<sim::KernelDesc> kernels =
        model.lowerIteration(batch, seq_len, tuner);
    sim::ExecutionResult res = gpu_.executeAll(kernels,
                                               /*keep_records=*/true);
    return foldRecords(seq_len, res.records);
}

const IterationProfile &
Profiler::profileInference(int64_t seq_len)
{
    auto it = inferCache.find(seq_len);
    if (it != inferCache.end())
        return it->second;

    auto [pos, inserted] = inferCache.emplace(
        seq_len, computeProfile(seq_len, /*train=*/false));
    (void)inserted;
    return pos->second;
}

void
Profiler::warmProfiles(const std::vector<int64_t> &sls, unsigned threads,
                       bool train,
                       std::map<int64_t, IterationProfile> &cache)
{
    // Unique, ascending, not-yet-cached SLs.
    std::vector<int64_t> todo(sls);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    todo.erase(std::remove_if(todo.begin(), todo.end(),
                              [&cache](int64_t sl) {
                                  return cache.count(sl) != 0;
                              }),
               todo.end());
    if (todo.empty())
        return;

    if (threads <= 1 || todo.size() == 1) {
        for (int64_t sl : todo) {
            cancelCheckpoint("profiler.warm");
            cache.emplace(sl, computeProfile(sl, train));
        }
        return;
    }

    // Fan out per SL on the process-wide pool (creating and joining a
    // private pool per sweep dominated small sweeps), capped at the
    // requested width, then insert in ascending-SL order so the memo
    // ends up in the same state a serial sweep would produce. The
    // checkpoint observes the caller's cancel token on every
    // participant (parallelFor re-installs the scope), so a deadline
    // firing mid-sweep abandons the remaining SLs promptly.
    std::vector<IterationProfile> results(todo.size());
    ThreadPool::shared().parallelFor(todo.size(), [&](std::size_t i) {
        cancelCheckpoint("profiler.warm");
        results[i] = computeProfile(todo[i], train);
    }, threads);
    for (std::size_t i = 0; i < todo.size(); ++i)
        cache.emplace(todo[i], std::move(results[i]));
}

void
Profiler::seedTrainProfiles(
    const std::map<int64_t, IterationProfile> &profiles)
{
    trainCache.insert(profiles.begin(), profiles.end());
}

void
Profiler::seedInferProfiles(
    const std::map<int64_t, IterationProfile> &profiles)
{
    inferCache.insert(profiles.begin(), profiles.end());
}

void
Profiler::warmTrainProfiles(const std::vector<int64_t> &sls,
                            unsigned threads)
{
    warmProfiles(sls, threads, /*train=*/true, trainCache);
}

void
Profiler::warmInferProfiles(const std::vector<int64_t> &sls,
                            unsigned threads)
{
    warmProfiles(sls, threads, /*train=*/false, inferCache);
}

} // namespace prof
} // namespace seqpoint
