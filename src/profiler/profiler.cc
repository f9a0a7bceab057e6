/**
 * @file
 * Profiler implementation.
 */

#include "profiler/profiler.hh"

#include <algorithm>
#include <functional>

#include "common/cancel.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/kernel_gen.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace prof {

Profiler::Profiler(const sim::Gpu &gpu, const nn::Model &net,
                   nn::Autotuner &shared_tuner, unsigned batch_size)
    : gpu_(gpu), model(net), tuner(shared_tuner), batch(batch_size)
{
    fatal_if(batch_size == 0, "Profiler: zero batch size");
}

namespace {

/**
 * Run fn(0..n-1): serially, or fanned out on the process-wide pool
 * capped at `threads`. Every caller's fn polls its own checkpoint.
 */
void
forEachIndex(std::size_t n, unsigned threads,
             const std::function<void(std::size_t)> &fn)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool::shared().parallelFor(n, fn, threads);
}

} // anonymous namespace

void
Profiler::timeNewOps(const std::vector<const nn::Program *> &progs,
                     unsigned threads)
{
    // Every op of a fetched program is interned already, so one resize
    // per call covers them all: a first sweep allocates the slot index
    // at its full size instead of doubling it through every new op id.
    // The index spans the model's whole op table -- which a network
    // shared by many Experiments fills with every op any of them
    // interned -- at four bytes an op; the timings themselves are
    // dense, one per op our programs use.
    const uint32_t ops = model.opCount();
    if (ops > opSlot.size())
        opSlot.resize(ops);

    // The untimed ops, each once, in first-use order.
    std::vector<uint32_t> fresh;
    std::vector<bool> queued(opSlot.size());
    for (const nn::Program *prog : progs) {
        cancelCheckpoint("profiler.resolve");
        for (const nn::ProgramStep &step : *prog) {
            if (opSlot[step.op] || queued[step.op])
                continue;
            queued[step.op] = true;
            fresh.push_back(step.op);
        }
    }

    // The slack keeps a later call's few new ops (an epoch's inference
    // programs add a handful) from copying the whole table.
    const std::size_t first = opTimings.size();
    const std::size_t need = first + fresh.size();
    if (need > opTimings.capacity())
        opTimings.reserve(need + need / 8);
    opTimings.resize(need);

    // Each op is resolved and timed exactly once per profiler, each
    // into its own slot, straight from the timing model: this table is
    // the profiler's only per-device timing memo, so a device's timing
    // cache would only add a lookup per op. The tuner and the timing
    // model are pure functions of the shape and the descriptor, so the
    // slot contents do not depend on which thread fills them. An op's
    // index entry is set only once its slot is filled, so a cancelled
    // sweep leaves the rest to be timed again by the next call.
    forEachIndex(fresh.size(), threads, [&](std::size_t i) {
        cancelCheckpoint("profiler.resolve");
        sim::KernelDesc kd = nn::resolveKernel(model.op(fresh[i]), tuner);
        opTimings[first + i] =
            OpTiming{sim::timeKernel(kd, gpu_.config()), kd.klass};
        opSlot[fresh[i]] = static_cast<uint32_t>(first + i + 1);
    });
}

IterationProfile
Profiler::fold(int64_t seq_len, const nn::Program &prog) const
{
    sim::ExecutionResult res;
    for (const nn::ProgramStep &step : prog) {
        const OpTiming &op = opTimings[opSlot[step.op] - 1];
        sim::KernelTiming kt = op.timing;
        sim::accountLaunch(res, kt, op.klass, step.repeat);
    }
    IterationProfile p;
    p.seqLen = seq_len;
    p.timeSec = res.totalSec;
    p.launches = res.launches;
    p.counters = res.counters;
    p.classTimeSec = res.classSec;
    return p;
}

const IterationProfile &
Profiler::memoized(int64_t seq_len, bool train,
                   std::map<int64_t, IterationProfile> &cache)
{
    auto it = cache.find(seq_len);
    if (it != cache.end())
        return it->second;

    const nn::Program &prog = model.program(batch, seq_len, train);
    timeNewOps({&prog}, 1);
    return cache.emplace(seq_len, fold(seq_len, prog)).first->second;
}

const IterationProfile &
Profiler::profileIteration(int64_t seq_len)
{
    return memoized(seq_len, /*train=*/true, trainCache);
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
    return memoized(seq_len, /*train=*/false, inferCache);
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

    // Three phases, each fanned out per index: fetch (or lower) the
    // programs, time the ops no earlier program used, then fold. The
    // op table is only written in the middle phase, so the folds read
    // it without locks. The checkpoints observe the caller's cancel
    // token on every participant (parallelFor re-installs the scope),
    // so a deadline firing mid-sweep abandons the remaining work
    // promptly.
    std::vector<const nn::Program *> progs(todo.size());
    forEachIndex(todo.size(), threads, [&](std::size_t i) {
        cancelCheckpoint("profiler.warm");
        progs[i] = &model.program(batch, todo[i], train);
    });
    timeNewOps(progs, threads);
    std::vector<IterationProfile> results(todo.size());
    forEachIndex(todo.size(), threads, [&](std::size_t i) {
        cancelCheckpoint("profiler.warm");
        results[i] = fold(todo[i], *progs[i]);
    });
    // Insert in ascending-SL order, as a serial sweep would.
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
