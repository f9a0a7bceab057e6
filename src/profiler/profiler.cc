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
    // The table for gpu's configuration tunes for it, so a Measured
    // tuner bound to another configuration would be handed shapes
    // probed on a device it was not built for.
    panic_if(shared_tuner.selectionMode() == nn::Autotuner::Mode::Measured &&
                 !sim::sameEncodedConfig(shared_tuner.device()->config(),
                                         gpu.config()),
             "Profiler: Measured tuner bound to a different configuration");
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
    // interned -- at one pointer an op.
    const uint32_t ops = model.opCount();
    if (ops > opSlot.size())
        opSlot.resize(ops);

    // The ops we have not remembered yet, each once, in first-use order.
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
    if (fresh.empty())
        return;

    if (!table)
        table = model.resolvedOps(gpu_.config(), tuner.selectionMode());

    // Resolve and time the ops no profiler of the network has on this
    // configuration yet. The table's probe and the timing model are
    // pure functions of the op and the configuration, so a slot's
    // contents do not depend on which thread -- of this sweep or of
    // another Experiment -- fills it. A slot is published whole or
    // not at all, so a cancelled sweep leaves the rest to the next.
    std::vector<nn::ResolvedOps::OpSlot *> slots;
    table->opSlots(fresh, slots);
    std::vector<std::size_t> todo;
    std::vector<uint32_t> ids;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        cancelCheckpoint("profiler.resolve");
        if (!slots[i]->published()) {
            todo.push_back(i);
            ids.push_back(fresh[i]);
        }
    }
    if (!todo.empty()) {
        std::vector<sim::KernelDesc> descs;
        std::vector<uint32_t> shapes;
        model.copyOps(ids, descs, shapes);
        std::vector<nn::ResolvedOps::ShapeSlot *> shape_slots;
        table->shapeSlots(shapes, shape_slots);
        forEachIndex(todo.size(), threads, [&](std::size_t i) {
            cancelCheckpoint("profiler.resolve");
            table->fill(*slots[todo[i]], descs[i], shape_slots[i]);
        });
    }

    // Remember the ops' slots, all published now. An op a cancelled
    // sweep leaves unremembered is fresh again on the next sweep.
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        cancelCheckpoint("profiler.resolve");
        opSlot[fresh[i]] = &slots[i]->value();
    }
}

IterationProfile
Profiler::fold(int64_t seq_len, const nn::Program &prog) const
{
    sim::ExecutionResult res;
    for (const nn::ProgramStep &step : prog) {
        const nn::ResolvedOp &op = *opSlot[step.op];
        sim::KernelTiming kt;
        kt.timeSec = op.timeSec;
        kt.counters = op.counters;
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
    // programs, remember (and, where no profiler of the network has,
    // time) the ops no earlier program of ours used, then fold. Our
    // slot index is only written in the middle phase, so the folds
    // read it without locks. The checkpoints observe the caller's cancel
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
