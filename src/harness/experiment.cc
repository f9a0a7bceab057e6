/**
 * @file
 * Experiment driver implementation.
 */

#include "harness/experiment.hh"

#include <bit>

#include "common/logging.hh"

namespace seqpoint {
namespace harness {

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/**
 * Whether two configurations have the same sim::encodeGpuConfig()
 * byte image, field by field and without encoding: the equality the
 * query service's warm key uses. Unlike GpuConfig::operator==, a NaN
 * field matches itself (so a NaN config resolves to one state) and
 * -0.0 stays apart from 0.0.
 */
bool
sameConfig(const sim::GpuConfig &a, const sim::GpuConfig &b)
{
    return a.name == b.name && sameBits(a.gclkHz, b.gclkHz) &&
        a.numCus == b.numCus && a.simdsPerCu == b.simdsPerCu &&
        a.lanesPerSimd == b.lanesPerSimd &&
        a.maxWavesPerCu == b.maxWavesPerCu &&
        a.waveSize == b.waveSize && a.l1SizeBytes == b.l1SizeBytes &&
        a.l1Assoc == b.l1Assoc && a.l2SizeBytes == b.l2SizeBytes &&
        a.l2Assoc == b.l2Assoc && a.lineBytes == b.lineBytes &&
        sameBits(a.l1BytesPerCycle, b.l1BytesPerCycle) &&
        sameBits(a.l2BytesPerCycle, b.l2BytesPerCycle) &&
        sameBits(a.dramBandwidth, b.dramBandwidth) &&
        sameBits(a.dramEfficiency, b.dramEfficiency) &&
        sameBits(a.launchOverheadSec, b.launchOverheadSec) &&
        sameBits(a.writeDrainFraction, b.writeDrainFraction);
}

} // anonymous namespace

Experiment::ConfigState::ConfigState(const sim::GpuConfig &cfg,
                                     const nn::Model &model,
                                     unsigned batch)
    : gpu(cfg), tuner(nn::Autotuner::Mode::Measured, &gpu),
      profiler(gpu, model, tuner, batch)
{
}

core::SeqPointOptions
Experiment::defaultOptions()
{
    core::SeqPointOptions opts;
    opts.uniqueSlThreshold = 10;
    opts.initialBins = 5;
    opts.errorThreshold = 0.005;
    return opts;
}

Experiment::Experiment(Workload workload, core::SeqPointOptions options)
    : wl(std::move(workload)), opts(options)
{
}

Experiment::ConfigState &
Experiment::state(const sim::GpuConfig &cfg)
{
    // Resolve by bit-for-bit equality of every parameter: two configs
    // that share a name but differ in any parameter must not alias
    // one state, and a NaN config must find the state it made.
    for (const auto &st : states) {
        if (sameConfig(st->gpu.config(), cfg))
            return *st;
    }
    states.push_back(
        std::make_unique<ConfigState>(cfg, wl.model, wl.batchSize));
    ConfigState &st = *states.back();

    // Seed the new state from the adopted snapshot covering exactly
    // this configuration, if any. Everything copied in is a pure
    // function of (workload, configuration), so seeded queries are
    // bit-identical to cold ones; other configurations start cold.
    for (const auto &seed : seeds) {
        if (!sameConfig(seed->config, cfg))
            continue;
        st.tuner.seed(seed->tunerEntries);
        st.profiler.seedTrainProfiles(seed->trainProfiles);
        st.profiler.seedInferProfiles(seed->inferProfiles);
        st.log = std::make_unique<prof::TrainLog>(seed->log);
        st.stats = std::make_unique<core::SlStats>(seed->stats);
        st.selections = seed->selections;
        break;
    }
    return st;
}

void
Experiment::warmIterProfiles(const sim::GpuConfig &cfg,
                             const std::vector<int64_t> &sls)
{
    state(cfg).profiler.warmTrainProfiles(sls, profThreads);
}

const prof::TrainLog &
Experiment::epochLog(const sim::GpuConfig &cfg)
{
    ConfigState &st = state(cfg);
    if (!st.log) {
        prof::TrainConfig tc;
        tc.batchSize = wl.batchSize;
        tc.policy = wl.policy;
        tc.seed = wl.seed;
        tc.evalCostMultiplier = wl.evalCostMultiplier;
        tc.profileThreads = profThreads;
        // Run through the per-config profiler: the epoch's unique-SL
        // profiles land in the same memo iterTime()/iterProfile()
        // read, so nothing is ever profiled twice per configuration.
        st.log = std::make_unique<prof::TrainLog>(
            prof::runTrainingEpoch(st.profiler, wl.dataset, tc));
    }
    return *st.log;
}

double
Experiment::iterTime(const sim::GpuConfig &cfg, int64_t sl)
{
    return state(cfg).profiler.profileIteration(sl).timeSec;
}

const prof::IterationProfile &
Experiment::iterProfile(const sim::GpuConfig &cfg, int64_t sl)
{
    return state(cfg).profiler.profileIteration(sl);
}

prof::DetailedProfile
Experiment::iterProfileDetailed(const sim::GpuConfig &cfg, int64_t sl)
{
    return state(cfg).profiler.profileIterationDetailed(sl);
}

double
Experiment::actualTrainSec(const sim::GpuConfig &cfg)
{
    return epochLog(cfg).trainSec;
}

double
Experiment::actualThroughput(const sim::GpuConfig &cfg)
{
    return epochLog(cfg).throughput(wl.batchSize);
}

std::vector<core::IterationSample>
Experiment::epochSamples(const sim::GpuConfig &cfg)
{
    const prof::TrainLog &log = epochLog(cfg);
    std::vector<core::IterationSample> samples;
    samples.reserve(log.iterations.size());
    for (const prof::IterationLog &it : log.iterations)
        samples.push_back(core::IterationSample{it.seqLen, it.timeSec});
    return samples;
}

const core::SlStats &
Experiment::slStats(const sim::GpuConfig &cfg)
{
    ConfigState &st = state(cfg);
    if (!st.stats) {
        st.stats = std::make_unique<core::SlStats>(
            core::SlStats::fromIterations(epochSamples(cfg)));
    }
    return *st.stats;
}

const core::SeqPointSet &
Experiment::buildSelection(core::SelectorKind kind,
                           const sim::GpuConfig &ref)
{
    {
        ConfigState &st = state(ref);
        auto it = st.selections.find(kind);
        if (it != st.selections.end())
            return it->second;
    }

    // Build outside any held iterator: slStats()/epochSamples() may
    // run the epoch, and the memo write below must come last.
    core::SeqPointSet sel;
    switch (kind) {
      case core::SelectorKind::Worst:
        sel = core::selectWorst(slStats(ref));
        break;
      case core::SelectorKind::Frequent:
        sel = core::selectFrequent(slStats(ref));
        break;
      case core::SelectorKind::Median:
        sel = core::selectMedian(slStats(ref));
        break;
      case core::SelectorKind::Prior:
        sel = core::selectPrior(epochSamples(ref));
        break;
      case core::SelectorKind::SeqPoint:
        sel = core::selectSeqPoints(slStats(ref), opts);
        break;
      default:
        panic("buildSelection: bad selector");
    }
    return state(ref).selections.emplace(kind, std::move(sel))
        .first->second;
}

std::map<core::SelectorKind, core::SeqPointSet>
Experiment::buildAllSelections(const sim::GpuConfig &ref)
{
    std::map<core::SelectorKind, core::SeqPointSet> sets;
    for (core::SelectorKind kind : {
             core::SelectorKind::Worst, core::SelectorKind::Frequent,
             core::SelectorKind::Median, core::SelectorKind::Prior,
             core::SelectorKind::SeqPoint}) {
        sets.emplace(kind, buildSelection(kind, ref));
    }
    return sets;
}

double
Experiment::projectedTrainSec(const core::SeqPointSet &sel,
                              const sim::GpuConfig &target)
{
    return core::projectTrainingTime(sel,
        [this, &target](int64_t sl) { return iterTime(target, sl); });
}

double
Experiment::projectedThroughput(const core::SeqPointSet &sel,
                                const sim::GpuConfig &target)
{
    return core::projectThroughput(sel, wl.batchSize,
        [this, &target](int64_t sl) { return iterTime(target, sl); });
}

std::shared_ptr<const ModelSnapshot>
Experiment::snapshot(const sim::GpuConfig &cfg)
{
    // Pay (or reuse) the full cold start first: epoch, per-SL
    // profiles, autotune, kernel timings and every selector's set
    // (warmed into the memo directly; buildAllSelections would
    // deep-copy a result map just to discard it).
    epochLog(cfg);
    for (core::SelectorKind kind : {
             core::SelectorKind::Worst, core::SelectorKind::Frequent,
             core::SelectorKind::Median, core::SelectorKind::Prior,
             core::SelectorKind::SeqPoint}) {
        buildSelection(kind, cfg);
    }

    ConfigState &st = state(cfg);
    auto snap = std::make_shared<ModelSnapshot>();
    snap->workload = wl.name;
    snap->config = cfg;
    snap->dataset = wl.dataset.name;
    snap->batchSize = wl.batchSize;
    snap->policy = wl.policy;
    snap->seed = wl.seed;
    snap->evalCostMultiplier = wl.evalCostMultiplier;
    snap->opts = opts;
    snap->tunerEntries = st.tuner.snapshotEntries();
    snap->trainProfiles = st.profiler.trainProfileSnapshot();
    snap->inferProfiles = st.profiler.inferProfileSnapshot();
    snap->log = *st.log;
    snap->stats = *st.stats;
    snap->selections = st.selections;
    return snap;
}

void
Experiment::seedFrom(std::shared_ptr<const ModelSnapshot> snap)
{
    if (!snap) {
        seeds.clear();
        return;
    }
    panic_if(!states.empty(),
             "Experiment::seedFrom after %zu configuration(s) were "
             "already queried; adopt snapshots before the first query",
             states.size());
    panic_if(snap->workload != wl.name,
             "Experiment::seedFrom: snapshot is for workload '%s', "
             "this experiment runs '%s'",
             snap->workload.c_str(), wl.name.c_str());
    // Same name is not enough: the snapshotted state is a function of
    // the full run parameters, so a same-name variant (other seed,
    // batch size, policy, eval cost, dataset or tunables) must never
    // be seeded with this run's results.
    panic_if(snap->dataset != wl.dataset.name ||
                 snap->batchSize != wl.batchSize ||
                 snap->policy != wl.policy || snap->seed != wl.seed ||
                 snap->evalCostMultiplier != wl.evalCostMultiplier ||
                 !(snap->opts == opts),
             "Experiment::seedFrom: snapshot run parameters differ "
             "from this experiment's (workload '%s': dataset/batch/"
             "policy/seed/eval-cost/options must all match)",
             wl.name.c_str());
    // One snapshot per configuration: a second snapshot for an
    // already-adopted config would silently shadow the first.
    for (const auto &seed : seeds) {
        panic_if(sameConfig(seed->config, snap->config),
                 "Experiment::seedFrom: a snapshot for configuration "
                 "'%s' was already adopted", snap->config.name.c_str());
    }
    seeds.push_back(std::move(snap));
}

} // namespace harness
} // namespace seqpoint
