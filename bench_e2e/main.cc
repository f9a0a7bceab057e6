/**
 * @file
 * The end-to-end benchmark: what a user of this repository waits for,
 * measured from outside the library through its public API.
 *
 *   seqpoint_e2e --workload <cold_query|fig_sweep|warm_service>
 *                --seed <n> --seconds <s> --trace <0|1>
 *                [--workdir <dir>] [--source <id>] [--commit <id>]
 *
 * Every run executes three closed-loop phases on inputs drawn from the
 * seed (see e2e::makePlan):
 *
 *   cold  one client; each query is a never-seen (network, dataset
 *         seed, target config) on a fresh Experiment, profile threads 1,
 *         run four times on four vCPUs; the fastest run counts.
 *   fig   the fig11/15 and fig12/16 grids through
 *         runFigureSweepScheduled, a cold pass that fills an empty
 *         on-disk SnapshotRegistry store and a store pass that replays
 *         it from a fresh registry.
 *   warm  one QueryService (2 workers) and 2 client threads sending
 *         Zipf-popular queries over a pre-warmed pair grid plus a fixed
 *         share of never-seen pairs.
 *
 * The workload names the phase that gets the measured time; the other
 * two run at their fixed minimum size, so every metric is measured on
 * every workload. Every answer is checked (see checkCold and friends);
 * a wrong answer makes the run fail.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 runs a fixed
 * amount of each phase three times, with spans recorded around the
 * calls into each module in the middle pass only, replays cold queries
 * layer by layer, and prints the per-layer metrics plus the tracing
 * overhead.
 * The last line of standard output is always the JSON result.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/stats_math.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "core/projection.hh"
#include "data/dataset.hh"
#include "e2e.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/snapshot_io.hh"
#include "harness/snapshot_registry.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "profiler/profiler.hh"
#include "profiler/trainer.hh"
#include "service/query_service.hh"
#include "sim/gpu.hh"

using namespace seqpoint;
using e2e::ColdQuery;
using e2e::Net;
using e2e::Outcome;
using e2e::Pair;
using e2e::Plan;
using e2e::Span;
using e2e::SweepInput;
using e2e::Tally;
using e2e::Tracer;
using e2e::nowSec;

namespace {

// ---------------------------------------------------------------------
// Sizes. The minimums keep every reported percentile supported (ten
// samples beyond it) on the phases a workload does not emphasise.
// ---------------------------------------------------------------------
constexpr unsigned kSetupRepeats = 5;
constexpr std::size_t kColdMin = 100;
constexpr std::size_t kColdListLen = 4000;
constexpr unsigned kColdRuns = 4;
constexpr std::size_t kColdRedoLag = 8;
constexpr std::size_t kSweepSeeds = 1;
constexpr unsigned kFigRepsMin = 3;
constexpr unsigned kStorePasses = 2;
constexpr std::size_t kGridSeeds = 3;     // x 2 nets x 5 configs = 30 pairs
constexpr std::size_t kTrickleSeeds = 1;  // 10 never-seen pairs
constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
constexpr uint64_t kColdEvery = 8192;
constexpr std::size_t kWarmMinWindows = 8;
constexpr double kWarmSliceSec = 1.0;
constexpr double kWarmWindowSec = 0.25;
constexpr std::size_t kTraceColdQueries = 8;
constexpr uint64_t kTraceWarmPerClient = 4 * kColdEvery;

enum class Phase { Cold, Fig, Warm };

struct Options {
    std::string workload;
    Phase primary = Phase::Cold;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string traceOut;
    std::string source = "unknown";
    std::string commit = "unknown";
};

const std::vector<sim::GpuConfig> &
configs()
{
    static const std::vector<sim::GpuConfig> cfgs = sim::GpuConfig::table2();
    return cfgs;
}

/** A SeqPoint answer: what every correctness check compares. */
struct Answer {
    core::SeqPointSet selection;
    double projectedSec = 0.0;
    double actualSec = 0.0;

    bool operator==(const Answer &other) const = default;

    double
    errorPct() const
    {
        return core::timeErrorPercent(projectedSec, actualSec);
    }
};

// ---------------------------------------------------------------------
// Cold query: the product path and its layer-by-layer replay.
// ---------------------------------------------------------------------

/**
 * A SeqPoint answer as a user gets it from a fresh Experiment: the
 * selection built on configuration `ref`, then the projection and the
 * full-epoch actual on `target`.
 */
Answer
experimentAnswer(Net net, uint64_t seed, unsigned ref, unsigned target)
{
    harness::Experiment exp(e2e::makeWorkload(net, seed));
    exp.setProfileThreads(1);
    Answer a;
    a.selection = exp.buildSelection(core::SelectorKind::SeqPoint,
                                     configs()[ref]);
    a.projectedSec = exp.projectedTrainSec(a.selection, configs()[target]);
    a.actualSec = exp.actualTrainSec(configs()[target]);
    return a;
}

/** The cold query: selection on config #1, answer on the target. */
Answer
coldQuery(const ColdQuery &q)
{
    return experimentAnswer(q.net, q.datasetSeed, 0, q.target);
}

/** One configuration's device, tuner and profiler, as an Experiment
 *  stands them up. */
struct ConfigRun {
    sim::Gpu gpu;
    nn::Autotuner tuner;
    prof::Profiler profiler;

    ConfigRun(const sim::GpuConfig &cfg, const harness::Workload &wl)
        : gpu(cfg), tuner(nn::Autotuner::Mode::Measured, &gpu),
          profiler(gpu, wl.model, tuner, wl.batchSize)
    {
    }
    ConfigRun(const ConfigRun &) = delete;
    ConfigRun &operator=(const ConfigRun &) = delete;
};

prof::TrainConfig
trainConfig(const harness::Workload &wl)
{
    prof::TrainConfig tc;
    tc.batchSize = wl.batchSize;
    tc.policy = wl.policy;
    tc.seed = wl.seed;
    tc.evalCostMultiplier = wl.evalCostMultiplier;
    tc.profileThreads = 1;
    return tc;
}

std::vector<int64_t>
uniqueSls(const std::vector<data::Batch> &batches)
{
    std::vector<int64_t> sls;
    for (const data::Batch &b : batches)
        sls.push_back(b.seqLen);
    std::sort(sls.begin(), sls.end());
    sls.erase(std::unique(sls.begin(), sls.end()), sls.end());
    return sls;
}

/** The unique training and evaluation SLs an epoch will profile. */
struct EpochSls {
    std::vector<int64_t> train;
    std::vector<int64_t> eval;
};

EpochSls
epochSls(const harness::Workload &wl, const prof::TrainConfig &tc)
{
    // The evaluation schedule continues the training schedule's RNG,
    // exactly as runTrainingEpoch draws it.
    Rng rng;
    EpochSls out;
    out.train = uniqueSls(prof::epochBatchSchedule(wl.dataset, tc, &rng));
    if (tc.runEval && wl.dataset.evalLens.size() >= tc.batchSize) {
        out.eval = uniqueSls(data::makeEpochBatches(
            wl.dataset.evalLens, tc.batchSize, data::BatchPolicy::Bucketed,
            rng));
    }
    return out;
}

/**
 * Replay a cold query stage by stage through the modules' public
 * functions, one span per stage. The children of "cold.replay" cover
 * the query's work exactly once, so their sum is comparable with the
 * product path's wall time.
 */
Answer
replayColdQuery(const ColdQuery &q, Tracer &tr, uint32_t request)
{
    Span root(tr, "cold.replay", 0, request);
    const uint32_t parent = root.id();

    std::unique_ptr<harness::Workload> wl;
    {
        Span s(tr, "harness.make_workload", parent, request);
        wl = std::make_unique<harness::Workload>(
            e2e::makeWorkload(q.net, q.datasetSeed));
    }
    const prof::TrainConfig tc = trainConfig(*wl);
    EpochSls sls;
    {
        Span s(tr, "profiler.schedule", parent, request);
        sls = epochSls(*wl, tc);
    }

    auto epoch = [&](std::unique_ptr<ConfigRun> &run,
                     const sim::GpuConfig &cfg) {
        {
            Span s(tr, "profiler.warm", parent, request);
            run = std::make_unique<ConfigRun>(cfg, *wl);
            run->profiler.warmTrainProfiles(sls.train, 1);
        }
        {
            Span s(tr, "profiler.warm_infer", parent, request);
            run->profiler.warmInferProfiles(sls.eval, 1);
        }
        Span s(tr, "profiler.epoch", parent, request);
        return prof::runTrainingEpoch(run->profiler, wl->dataset, tc);
    };

    std::unique_ptr<ConfigRun> ref, target;
    const prof::TrainLog ref_log = epoch(ref, configs()[0]);

    core::SlStats stats;
    {
        Span s(tr, "core.slstats", parent, request);
        std::vector<core::IterationSample> samples;
        samples.reserve(ref_log.iterations.size());
        for (const prof::IterationLog &it : ref_log.iterations)
            samples.push_back(core::IterationSample{it.seqLen, it.timeSec});
        stats = core::SlStats::fromIterations(samples);
    }
    Answer a;
    {
        Span s(tr, "core.select", parent, request);
        a.selection = core::selectSeqPoints(
            stats, harness::Experiment::defaultOptions());
    }

    const prof::TrainLog target_log = epoch(target, configs()[q.target]);
    {
        Span s(tr, "core.project", parent, request);
        a.projectedSec = core::projectTrainingTime(
            a.selection, [&target](int64_t sl) {
                return target->profiler.profileIteration(sl).timeSec;
            });
    }
    a.actualSec = target_log.trainSec;
    return a;
}

/** Exact counts from the layer probes (they repeat run to run). */
struct LayerCounts {
    uint64_t lowerCalls = 0;
    uint64_t kernelsEmitted = 0;
    uint64_t autotuneEntries = 0;
    uint64_t timingLookups = 0;
    uint64_t timingHits = 0;
    uint64_t uniqueKernels = 0;
    uint64_t uniqueSls = 0;
    uint64_t binsUsed = 0;

    bool operator==(const LayerCounts &other) const = default;
};

/**
 * Time the layers under a cold query in isolation: build the model and
 * synthesise the dataset, lower every unique training SL with a fresh
 * autotuner, then execute the streams on a fresh device with an empty
 * and then a full kernel-timing cache, on both of the query's
 * configurations. The probe repeats work the replay already did, so
 * its spans sit under their own root. Returns false when the warm-cache
 * execution differs from the cold one.
 */
bool
probeColdQuery(const ColdQuery &q, Tracer &tr, uint32_t request,
               LayerCounts &counts)
{
    Span root(tr, "cold.probe", 0, request);
    const uint32_t parent = root.id();
    {
        Span s(tr, "models.build", parent, request);
        nn::Model m = q.net == Net::Gnmt ? models::buildGnmt()
                                         : models::buildDs2();
        (void)m;
    }
    {
        Span s(tr, "data.synth", parent, request);
        data::Dataset ds = q.net == Net::Gnmt
            ? data::synthIwslt15(q.datasetSeed)
            : data::synthLibriSpeech100(q.datasetSeed);
        (void)ds;
    }

    const harness::Workload wl = e2e::makeWorkload(q.net, q.datasetSeed);
    const EpochSls sls = epochSls(wl, trainConfig(wl));
    bool identical = true;
    for (unsigned c : {0u, q.target}) {
        const sim::GpuConfig &cfg = configs()[c];
        sim::Gpu tune_gpu(cfg);
        nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &tune_gpu);
        std::vector<std::vector<sim::KernelDesc>> streams;
        streams.reserve(sls.train.size());
        {
            Span s(tr, "nn.lower", parent, request);
            for (int64_t sl : sls.train)
                streams.push_back(
                    wl.model.lowerIteration(wl.batchSize, sl, tuner));
        }
        counts.lowerCalls += streams.size();
        for (const auto &stream : streams)
            counts.kernelsEmitted += stream.size();
        counts.autotuneEntries += tuner.cacheSize();
        counts.uniqueSls += sls.train.size();

        sim::Gpu gpu(cfg);
        std::vector<double> cold_sec;
        {
            Span s(tr, "sim.exec_cold", parent, request);
            for (const auto &stream : streams)
                cold_sec.push_back(gpu.executeAll(stream).totalSec);
        }
        const sim::TimingCacheStats st = gpu.timingCacheStats();
        counts.timingLookups += st.lookups();
        counts.timingHits += st.hits;
        counts.uniqueKernels += gpu.uniqueKernelsTimed();
        {
            Span s(tr, "sim.exec_warm", parent, request);
            for (std::size_t i = 0; i < streams.size(); ++i)
                identical &=
                    gpu.executeAll(streams[i]).totalSec == cold_sec[i];
        }
    }
    return identical;
}

// ---------------------------------------------------------------------
// Run state.
// ---------------------------------------------------------------------

struct Results {
    Tally tally;
    std::vector<std::string> problems;

    std::vector<double> setupSec;
    std::vector<double> coldMs;
    std::vector<double> errPct;
    std::vector<double> sweepColdSec;
    std::vector<double> sweepStoreSec;

    void
    fail(const std::string &what)
    {
        if (problems.size() < 20)
            problems.push_back(what);
    }
};

unsigned
nprocs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Pins the calling thread to the `slot`-th CPU (modulo their number) of
 * its affinity mask while it lives, then restores the mask.
 *
 * On a shared host, other tenants' memory traffic slows a cold query by
 * about 1.6x at random moments: its thread CPU time grows with its wall
 * time, with no page fault, context switch or steal time in between.
 * Left to the scheduler, a single-threaded phase stays on one vCPU and
 * reads that vCPU's luck alone. The cold phase steps its runs round the
 * vCPUs instead, so that the runs of one query are independent draws,
 * as the multi-threaded phases spread over all vCPUs anyway.
 */
class CpuPin
{
  public:
    explicit CpuPin(std::size_t slot)
    {
        CPU_ZERO(&saved);
        if (sched_getaffinity(0, sizeof(saved), &saved) != 0)
            return;
        const int n = CPU_COUNT(&saved);
        if (n < 2)
            return;
        int skip = static_cast<int>(slot % static_cast<std::size_t>(n));
        cpu_set_t one;
        CPU_ZERO(&one);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &saved) && skip-- == 0) {
                CPU_SET(cpu, &one);
                break;
            }
        }
        pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~CpuPin()
    {
        if (pinned)
            sched_setaffinity(0, sizeof(saved), &saved);
    }
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t saved;
    bool pinned = false;
};

/** Check every answer against its replay, off the clock. */
void
checkCold(const Plan &plan, const std::vector<Answer> &answers,
          Results &res)
{
    std::vector<char> ok(answers.size(), 0);
    ThreadPool::shared().parallelFor(answers.size(), [&](std::size_t i) {
        Tracer off(false);
        ok[i] = replayColdQuery(plan.cold[i], off, 0) == answers[i];
    }, nprocs());
    for (std::size_t i = 0; i < answers.size(); ++i) {
        res.tally.add(e2e::classify(Status(), ok[i]));
        if (!ok[i])
            res.fail(csprintf("cold query %zu differs from its replay", i));
    }
}

// ---------------------------------------------------------------------
// Figure sweeps.
// ---------------------------------------------------------------------

harness::WorkloadFactory
factoryFor(Net net, uint64_t seed)
{
    return [net, seed] { return e2e::makeWorkload(net, seed); };
}

struct FigPass {
    double seconds = 0.0;
    std::vector<harness::FigureSweep> sweeps;
    harness::SnapshotRegistryStats stats;
};

FigPass
figPass(const Plan &plan, const std::string &store, Tracer &tr,
        const char *name)
{
    harness::SnapshotRegistry registry(store);
    FigPass out;
    Span pass(tr, name);
    const double t0 = nowSec();
    for (const SweepInput &in : plan.sweeps) {
        Span s(tr, "harness.fig_sweep", pass.id());
        out.sweeps.push_back(harness::runFigureSweepScheduled(
            factoryFor(in.net, in.datasetSeed), nprocs(), &registry));
    }
    out.seconds = nowSec() - t0;
    out.stats = registry.stats();
    return out;
}

std::size_t
seqPointColumn()
{
    const auto &order = harness::selectorOrder();
    return static_cast<std::size_t>(
        std::find(order.begin(), order.end(), core::SelectorKind::SeqPoint) -
        order.begin());
}

/** One cold pass into a fresh store, then its store passes. */
struct FigRep {
    FigPass cold;
    std::vector<FigPass> store;
};

/**
 * Run one repetition of the fig phase. Each store pass replays from a
 * fresh registry and must equal the cold pass with zero builds.
 */
FigRep
figRep(const Plan &plan, const std::string &store, Tracer &tr, Results &res)
{
    std::filesystem::remove_all(store);
    FigRep rep;
    rep.cold = figPass(plan, store, tr, "fig.cold_pass");
    for (std::size_t i = 0; i < plan.sweeps.size(); ++i)
        res.tally.add(Outcome::Ok);
    for (unsigned k = 0; k < kStorePasses; ++k) {
        FigPass warm = figPass(plan, store, tr, "fig.store_pass");
        for (std::size_t i = 0; i < plan.sweeps.size(); ++i) {
            bool same = warm.sweeps[i].identicalTo(rep.cold.sweeps[i]);
            res.tally.add(e2e::classify(Status(), same));
            if (!same)
                res.fail(csprintf("store pass differs on sweep %zu", i));
        }
        if (warm.stats.builds != 0) {
            res.tally.add(Outcome::Mismatch);
            res.fail(csprintf("store pass built %" PRIu64 " snapshots",
                              warm.stats.builds));
        }
        rep.store.push_back(std::move(warm));
    }
    return rep;
}

/**
 * SeqPoint's time-projection error on every configuration of the
 * reference sweeps (the leading entries of Plan::sweeps).
 */
std::vector<double>
referenceErrors(const Plan &plan, const FigPass &cold)
{
    std::vector<double> errs;
    for (std::size_t i = 0; i < plan.sweeps.size(); ++i) {
        if (plan.sweeps[i].datasetSeed != e2e::kReferenceSeed)
            continue;
        for (const harness::FigureColumn &col : cold.sweeps[i].columns) {
            errs.push_back(core::timeErrorPercent(
                col.projectedSec[seqPointColumn()], col.actualSec));
        }
    }
    return errs;
}

// ---------------------------------------------------------------------
// Warm service.
// ---------------------------------------------------------------------

std::string
pairName(Net net, uint64_t seed)
{
    return csprintf("%s#%" PRIu64, e2e::netName(net), seed);
}

service::QueryRequest
requestFor(const Pair &p)
{
    service::QueryRequest req;
    req.workload = pairName(p.net, p.datasetSeed);
    req.config = configs()[p.config];
    return req;
}

Answer
fromService(const service::QueryAnswer &qa)
{
    return Answer{qa.selection, qa.projectedSec, qa.actualSec};
}

/** The service's answer for a pair, computed on a fresh Experiment. */
Answer
directAnswer(const Pair &p)
{
    return experimentAnswer(p.net, p.datasetSeed, p.config, p.config);
}

/** Inputs plus a started, pre-warmed service. */
struct Setup {
    Plan plan;
    std::unique_ptr<service::QueryService> svc;
    std::vector<Answer> gridAnswers; ///< Setup-time answer per grid pair.
};

std::unique_ptr<Setup>
makeSetup(uint64_t seed, Tracer &tr, Results &res)
{
    auto s = std::make_unique<Setup>();
    s->plan = e2e::makePlan(
        seed, e2e::PlanSizes{kColdListLen, kSweepSeeds, kGridSeeds,
                             kTrickleSeeds});

    service::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.profileThreads = 1;
    s->svc = std::make_unique<service::QueryService>(sc);
    // One registered workload name per (network, dataset seed); every
    // seed appears once with config 0.
    for (const std::vector<Pair> *pairs : {&s->plan.grid, &s->plan.trickle}) {
        for (const Pair &p : *pairs) {
            if (p.config == 0)
                s->svc->registerWorkload(pairName(p.net, p.datasetSeed),
                                         factoryFor(p.net, p.datasetSeed));
        }
    }
    s->svc->start();

    // Pre-warm the grid closed loop, one client per worker, so each
    // cold build's span holds no queueing.
    const std::size_t n = s->plan.grid.size();
    std::vector<service::QueryResult> results(n);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t i = c; i < n; i += kClients) {
                const double a = nowSec();
                results[i] = s->svc->query(requestFor(s->plan.grid[i]));
                tr.record("service.cold_build", 0,
                          static_cast<uint32_t>(i + 1), a, nowSec());
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (const service::QueryResult &r : results) {
        if (!r.status.ok() || !r.coldBuild)
            res.fail("pre-warm query failed or was not a cold build");
        s->gridAnswers.push_back(fromService(r.answer));
    }
    return s;
}

/** Check the kept set-up's pre-warm answers against direct
 *  Experiments; each pre-warm query counts as one operation. */
void
checkGrid(const Setup &s, Results &res)
{
    std::vector<char> ok(s.plan.grid.size(), 0);
    ThreadPool::shared().parallelFor(ok.size(), [&](std::size_t i) {
        ok[i] = directAnswer(s.plan.grid[i]) == s.gridAnswers[i];
    }, nprocs());
    for (std::size_t i = 0; i < ok.size(); ++i) {
        res.tally.add(e2e::classify(Status(), ok[i]));
        if (!ok[i])
            res.fail(csprintf("grid pair %zu differs from Experiment", i));
    }
}

/**
 * The warm-service closed loop. Each client keeps its query stream
 * across calls to run(), so the loop can advance in slices.
 */
class WarmDriver
{
  public:
    WarmDriver(Setup &setup, uint64_t seed) : s(setup)
    {
        for (unsigned c = 0; c < kClients; ++c) {
            clients.push_back(std::make_unique<Client>(
                e2e::WarmStream(s.plan, seed, c, kClients, kColdEvery),
                s.plan.grid.size()));
        }
    }

    /**
     * One slice: each client sends until it has sent `min_per_client`
     * queries in this call and `budget_sec` has passed. Warm p50, p99
     * and throughput are kept per kWarmWindowSec window of the slice;
     * the reported metrics are their medians over windows, so the
     * host's preemption bursts (worst when all vCPUs wake at once, at
     * the start of a slice) spoil a minority of windows and do not move
     * them.
     */
    void
    run(uint64_t min_per_client, double budget_sec, Tracer &tr)
    {
        std::vector<std::size_t> before;
        for (const auto &c : clients)
            before.push_back(c->warm.size());
        const double t0 = nowSec();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                for (uint64_t k = 0;
                     k < min_per_client || nowSec() - t0 < budget_sec; ++k)
                    send(c, t0, tr);
            });
        }
        for (std::thread &t : threads)
            t.join();
        const double wall = nowSec() - t0;

        const std::size_t n_windows = std::max<std::size_t>(
            1, static_cast<std::size_t>(wall / kWarmWindowSec));
        std::vector<std::vector<double>> windows(n_windows);
        for (std::size_t c = 0; c < clients.size(); ++c) {
            const auto &warm = clients[c]->warm;
            for (std::size_t i = before[c]; i < warm.size(); ++i) {
                std::size_t w = std::min(
                    n_windows - 1,
                    static_cast<std::size_t>(warm[i].first / kWarmWindowSec));
                windows[w].push_back(warm[i].second);
            }
        }
        // The last window may be short; it holds the slice's tail.
        const double last = wall - kWarmWindowSec * (n_windows - 1);
        for (std::size_t w = 0; w < n_windows; ++w) {
            const std::vector<double> &lat = windows[w];
            warmAnswers += lat.size();
            windowQps.push_back(static_cast<double>(lat.size()) /
                                (w + 1 < n_windows ? kWarmWindowSec : last));
            if (lat.empty())
                continue;
            windowP50.push_back(e2e::median(lat));
            if (std::optional<double> p99 = e2e::supportedPercentile(lat, 99))
                windowP99.push_back(*p99);
        }
    }

    /**
     * Fold the clients' outcomes into `res`, checking every never-seen
     * pair's answer against a direct Experiment (off the clock).
     */
    void
    finish(Results &res)
    {
        std::vector<std::size_t> cold_pairs;
        std::vector<Answer> cold_answers;
        std::vector<char> seen(s.plan.grid.size(), 0);
        for (const auto &c : clients) {
            res.tally.merge(c->tally);
            for (const std::string &p : c->problems)
                res.fail(p);
            cold_pairs.insert(cold_pairs.end(), c->coldPairs.begin(),
                              c->coldPairs.end());
            cold_answers.insert(cold_answers.end(), c->coldAnswers.begin(),
                                c->coldAnswers.end());
            for (std::size_t i = 0; i < seen.size(); ++i)
                seen[i] |= c->seen[i];
        }
        pairsAnswered = cold_pairs.size() +
            static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 1));

        std::vector<char> ok(cold_pairs.size(), 0);
        ThreadPool::shared().parallelFor(ok.size(), [&](std::size_t i) {
            ok[i] = directAnswer(s.plan.trickle[cold_pairs[i]]) ==
                cold_answers[i];
        }, nprocs());
        for (char same : ok) {
            res.tally.add(e2e::classify(Status(), same));
            if (!same)
                res.fail("never-seen pair differs from Experiment");
        }
    }

    std::vector<double> windowP50; ///< Warm p50 per window, in us.
    std::vector<double> windowP99; ///< Warm p99 of each window it supports.
    std::vector<double> windowQps; ///< Warm answers per second per window.
    uint64_t warmAnswers = 0;
    std::size_t pairsAnswered = 0; ///< Distinct pairs, from finish().

  private:
    struct Client {
        Client(e2e::WarmStream st, std::size_t grid)
            : stream(std::move(st)), seen(grid, 0)
        {
        }
        e2e::WarmStream stream;
        uint64_t sent = 0;
        Tally tally;
        std::vector<std::string> problems;
        /** (seconds into the slice at submit, latency in us). */
        std::vector<std::pair<double, double>> warm;
        std::vector<std::size_t> coldPairs; ///< Trickle indices answered.
        std::vector<Answer> coldAnswers;
        std::vector<char> seen;
    };

    void
    send(unsigned c, double slice_start, Tracer &tr)
    {
        Client &me = *clients[c];
        const e2e::WarmStream::Pick pick = me.stream.next();
        const Pair &pair = pick.cold ? s.plan.trickle[pick.index]
                                     : s.plan.grid[pick.index];
        const uint32_t request =
            static_cast<uint32_t>(me.sent++ * kClients + c + 1);
        const double a = nowSec();
        service::PendingPtr p = s.svc->submit(requestFor(pair));
        const double submitted = nowSec();
        service::QueryResult r = p->wait();
        const double b = nowSec();
        tr.record("service.submit", 0, request, a, submitted);
        tr.record(r.coldBuild ? "service.cold_build" : "service.warm_query",
                  0, request, a, b);
        if (!r.status.ok()) {
            // A shed or timed-out query is a failed operation, not a
            // wrong answer: it is counted, and the run goes on.
            me.tally.add(e2e::classify(r.status, false));
            return;
        }
        if (pick.cold) {
            me.coldPairs.push_back(pick.index);
            me.coldAnswers.push_back(fromService(r.answer));
            return;
        }
        bool same = !r.coldBuild &&
            fromService(r.answer) == s.gridAnswers[pick.index];
        me.tally.add(e2e::classify(r.status, same));
        if (!same && me.problems.size() < 20)
            me.problems.push_back("warm answer differs from its setup answer");
        me.warm.emplace_back(a - slice_start, (b - a) * 1e6);
        me.seen[pick.index] = 1;
    }

    Setup &s;
    std::vector<std::unique_ptr<Client>> clients;
};

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< Sample count or base, for the human table.
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

void
printResult(const Options &opts, const std::vector<Metric> &metrics,
            const Results &res)
{
    std::printf("# host {\"nproc\":%u,\"hw_threads\":%u,"
                "\"build_type\":%s,\"compiler\":%s,\"commit\":%s,"
                "\"source\":%s}\n",
                nprocs(), std::thread::hardware_concurrency(),
                jsonString(E2E_BUILD_TYPE).c_str(),
                jsonString(E2E_COMPILER).c_str(),
                jsonString(opts.commit).c_str(),
                jsonString(opts.source).c_str());
    std::printf("# %-32s %16s %-8s %s\n", "metric", "value", "unit",
                "samples/base");
    for (const Metric &m : metrics) {
        std::printf("  %-32s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
    std::printf("# failed_ops_frac %.6g (%" PRIu64 "/%" PRIu64
                ": shed %" PRIu64 ", timed out %" PRIu64
                ", mismatched %" PRIu64 ", other %" PRIu64 ")\n",
                res.tally.failedFrac(), res.tally.failed(),
                res.tally.attempted, res.tally.shed, res.tally.timedOut,
                res.tally.mismatched, res.tally.otherFailed);
    for (const std::string &p : res.problems)
        std::printf("# FAILED: %s\n", p.c_str());

    std::string json = csprintf(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": {",
        res.problems.empty() ? "true" : "false", res.tally.attempted,
        res.tally.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += csprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i ? ", " : "", metrics[i].name.c_str(),
                         metrics[i].value, metrics[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

std::string
samples(std::size_t n)
{
    return csprintf("n=%zu", n);
}

/** Tail percentile that must be supported by the sample. */
double
tail(const std::vector<double> &xs, double p, const char *what,
     Results &res)
{
    std::optional<double> v = e2e::supportedPercentile(xs, p);
    if (!v) {
        res.fail(csprintf("%s: %zu samples do not support p%g", what,
                          xs.size(), p));
        return 0.0;
    }
    return *v;
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics.
// ---------------------------------------------------------------------

int
runUntraced(const Options &opts)
{
    Results res;
    Tracer off(false);

    std::unique_ptr<Setup> setup;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        // Drain the previous service and hand its memory back, so that
        // repeating the set-up does not inflate peak_rss_mb.
        setup.reset();
        malloc_trim(0);
        const double t0 = nowSec();
        setup = makeSetup(opts.seed, off, res);
        res.setupSec.push_back(nowSec() - t0);
    }
    checkGrid(*setup, res);

    const Plan &plan = setup->plan;
    const std::string store = opts.workdir + "/store";
    std::vector<Answer> cold;
    std::vector<double> best_ms;
    unsigned fig_reps = 0;
    WarmDriver warm(*setup, opts.seed);

    // Every cold query runs kColdRuns times, kColdRedoLag cold steps
    // apart, each on a fresh Experiment and on the next vCPU, and counts
    // its fastest run (see CpuPin): a slow stretch of the host then
    // rarely hits every run, so the percentiles stay inside the
    // uncontended modes. Every rerun's answer must equal the first.
    auto rerun = [&](std::size_t i, unsigned run) {
        CpuPin pin(i + run);
        const double b = nowSec();
        const Answer again = coldQuery(plan.cold[i]);
        best_ms[i] = std::min(best_ms[i], (nowSec() - b) * 1e3);
        if (run + 1 == kColdRuns)
            res.coldMs.push_back(best_ms[i]);
        res.tally.add(e2e::classify(Status(), again == cold[i]));
        if (!(again == cold[i]))
            res.fail(csprintf("cold query %zu is not repeatable", i));
    };

    // Interleave the phases in short steps, so that each one samples the
    // whole run rather than one stretch of the host's noise: always step
    // the phase furthest behind its share of the time (half for the
    // workload's own phase, a quarter for each other one). Past the
    // measured time, only phases short of their minimum sample go on.
    const Phase phases[] = {Phase::Cold, Phase::Fig, Phase::Warm};
    double spent[3] = {0.0, 0.0, 0.0};
    auto below_min = [&](Phase ph) {
        switch (ph) {
          case Phase::Cold: return cold.size() < kColdMin;
          case Phase::Fig: return fig_reps < kFigRepsMin;
          case Phase::Warm: return warm.windowP99.size() < kWarmMinWindows;
        }
        return false;
    };
    const double t0 = nowSec();
    for (;;) {
        const bool over = nowSec() - t0 >= opts.seconds;
        int next = -1;
        double lag = 0.0;
        for (int i = 0; i < 3; ++i) {
            if (over && !below_min(phases[i]))
                continue;
            if (phases[i] == Phase::Cold && cold.size() == plan.cold.size())
                continue;
            double share = phases[i] == opts.primary ? 0.5 : 0.25;
            if (next < 0 || spent[i] / share < lag) {
                next = i;
                lag = spent[i] / share;
            }
        }
        if (next < 0)
            break;
        const double a = nowSec();
        switch (phases[next]) {
          case Phase::Cold: {
            const std::size_t n = cold.size();
            {
                CpuPin pin(n);
                const double b = nowSec();
                cold.push_back(coldQuery(plan.cold[n]));
                best_ms.push_back((nowSec() - b) * 1e3);
            }
            for (unsigned r = 1; r < kColdRuns; ++r) {
                if (n >= r * kColdRedoLag)
                    rerun(n - r * kColdRedoLag, r);
            }
            break;
          }
          case Phase::Fig: {
            FigRep rep = figRep(plan, store, off, res);
            res.sweepColdSec.push_back(rep.cold.seconds);
            for (const FigPass &w : rep.store)
                res.sweepStoreSec.push_back(w.seconds);
            if (fig_reps++ == 0)
                res.errPct = referenceErrors(plan, rep.cold);
            break;
          }
          case Phase::Warm:
            warm.run(0, kWarmSliceSec, off);
            break;
        }
        spent[next] += nowSec() - a;
    }
    for (unsigned r = 1; r < kColdRuns; ++r) {
        for (std::size_t i = 0; i < cold.size(); ++i) {
            if (i + r * kColdRedoLag >= cold.size())
                rerun(i, r);
        }
    }
    std::filesystem::remove_all(store);
    checkCold(plan, cold, res);
    warm.finish(res);
    const std::string warm_note =
        csprintf("n=%" PRIu64 " in %zu windows", warm.warmAnswers,
                 warm.windowP50.size());
    setup.reset();

    std::vector<Metric> m;
    std::string setup_note = samples(res.setupSec.size()) + ":";
    for (double x : res.setupSec)
        setup_note += csprintf(" %.3f", x);
    m.push_back({"setup_s", e2e::median(res.setupSec), "s", setup_note});
    m.push_back({"cold_query_p50_ms", e2e::median(res.coldMs), "ms",
                 samples(res.coldMs.size())});
    m.push_back({"cold_query_p90_ms",
                 tail(res.coldMs, 90, "cold_query_p90_ms", res), "ms",
                 samples(res.coldMs.size())});
    m.push_back({"sweep_cold_s", e2e::median(res.sweepColdSec), "s",
                 samples(res.sweepColdSec.size())});
    m.push_back({"sweep_store_s", e2e::median(res.sweepStoreSec), "s",
                 samples(res.sweepStoreSec.size())});
    m.push_back({"warm_query_p50_us", e2e::median(warm.windowP50), "us",
                 warm_note});
    m.push_back({"warm_query_p99_us", e2e::median(warm.windowP99), "us",
                 csprintf("%zu windows with p99", warm.windowP99.size())});
    m.push_back({"warm_qps", e2e::median(warm.windowQps), "1/s", warm_note});
    m.push_back({"peak_rss_mb", peakRssMb(), "MB", "process peak"});
    m.push_back({"ok_ops_frac", 1.0 - res.tally.failedFrac(), "frac",
                 csprintf("n=%" PRIu64, res.tally.attempted)});
    m.push_back({"seqpoint_err_gmean_pct", geomean(res.errPct), "%",
                 samples(res.errPct.size())});
    printResult(opts, m, res);
    return res.problems.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics.
// ---------------------------------------------------------------------

/** Exact counts one traced pass produced (compared across passes). */
struct PassCounts {
    LayerCounts layers;
    uint64_t registryBuilds = 0;
    uint64_t registryDiskHits = 0;
    uint64_t registryMemoryHits = 0;
    uint64_t snapshotBytes = 0;
    uint64_t serviceColdBuilds = 0;
    uint64_t serviceWarmHits = 0;
    uint64_t serviceShed = 0;
    uint64_t warmPairs = 0;

    bool operator==(const PassCounts &other) const = default;
};

/** A fixed amount of every phase, with spans when `tr` is enabled. */
PassCounts
traceWork(const Options &opts, Setup &setup, Tracer &tr, Results &res)
{
    PassCounts pc;
    const Plan &plan = setup.plan;

    const std::size_t n_cold = opts.primary == Phase::Cold
        ? 2 * kTraceColdQueries : kTraceColdQueries;
    for (std::size_t i = 0; i < n_cold; ++i) {
        const uint32_t request = static_cast<uint32_t>(i + 1);
        Answer product;
        {
            Span s(tr, "cold.query", 0, request);
            product = coldQuery(plan.cold[i]);
        }
        Answer replay = replayColdQuery(plan.cold[i], tr, request);
        pc.layers.binsUsed += replay.selection.binsUsed;
        bool same = replay == product;
        res.tally.add(e2e::classify(Status(), same));
        if (!same)
            res.fail(csprintf("cold query %zu differs from its replay", i));
        if (!probeColdQuery(plan.cold[i], tr, request, pc.layers))
            res.fail(csprintf("cold query %zu: warm-cache execution "
                              "differs from cold", i));
    }

    const std::string store = opts.workdir + "/store";
    FigRep rep = figRep(plan, store, tr, res);
    harness::SnapshotRegistry probe(store);
    for (const SweepInput &in : plan.sweeps) {
        for (const sim::GpuConfig &cfg : configs()) {
            std::shared_ptr<const harness::ModelSnapshot> snap;
            {
                Span s(tr, "harness.registry_acquire");
                snap = probe.acquire(factoryFor(in.net, in.datasetSeed), cfg,
                                     nprocs());
            }
            std::string payload;
            {
                Span s(tr, "harness.snapshot_encode");
                payload = harness::encodeSnapshotPayload(*snap);
            }
            pc.snapshotBytes += payload.size();
            std::string again;
            {
                Span s(tr, "harness.snapshot_decode");
                harness::ModelSnapshot back =
                    harness::decodeSnapshotPayload(payload, "probe");
                again = harness::encodeSnapshotPayload(back);
            }
            if (again != payload)
                res.fail("snapshot does not round-trip through the codec");
        }
    }
    std::vector<harness::SnapshotRegistryStats> stats = {rep.cold.stats,
                                                         probe.stats()};
    for (const FigPass &w : rep.store)
        stats.push_back(w.stats);
    for (const harness::SnapshotRegistryStats &st : stats) {
        pc.registryBuilds += st.builds;
        pc.registryDiskHits += st.diskHits;
        pc.registryMemoryHits += st.memoryHits;
    }
    std::filesystem::remove_all(store);

    const uint64_t per_client = opts.primary == Phase::Warm
        ? 2 * kTraceWarmPerClient : kTraceWarmPerClient;
    WarmDriver warm(setup, opts.seed);
    warm.run(per_client, 0.0, tr);
    warm.finish(res);
    const service::ServiceStats st = setup.svc->stats();
    pc.serviceColdBuilds = st.coldBuilds;
    pc.serviceWarmHits = st.warmHits;
    pc.serviceShed = st.shedOverload;
    pc.warmPairs = warm.pairsAnswered;
    return pc;
}

/** Per-request totals of the spans named `name`. */
std::vector<double>
perRequest(const std::vector<e2e::SpanRecord> &spans, const char *name,
           double scale)
{
    std::map<uint32_t, double> sums;
    for (const e2e::SpanRecord &s : spans) {
        if (s.name == name)
            sums[s.request] += s.seconds() * scale;
    }
    std::vector<double> out;
    for (const auto &[request, v] : sums)
        out.push_back(v);
    return out;
}

/** Median over cold queries of (sum of replay stages) / product time. */
std::vector<double>
replayCoverage(const std::vector<e2e::SpanRecord> &spans)
{
    std::map<uint32_t, double> query, stages;
    std::map<uint32_t, uint32_t> replay_root; // span id -> request
    for (const e2e::SpanRecord &s : spans) {
        if (s.name == "cold.query")
            query[s.request] = s.seconds();
        else if (s.name == "cold.replay")
            replay_root[s.id] = s.request;
    }
    for (const e2e::SpanRecord &s : spans) {
        auto it = replay_root.find(s.parent);
        if (it != replay_root.end())
            stages[it->second] += s.seconds();
    }
    std::vector<double> out;
    for (const auto &[request, sec] : query)
        out.push_back(100.0 * stages[request] / sec);
    return out;
}

int
runTraced(const Options &opts)
{
    Results res;
    // Untraced, traced, untraced: the traced pass is compared with the
    // mean of the two passes around it, which cancels a steady drift
    // of the host's speed.
    double work_sec[3] = {0.0, 0.0, 0.0};
    PassCounts counts[3];
    Tracer untraced(false), traced(true);
    Tracer *tracers[3] = {&untraced, &traced, &untraced};
    for (int pass = 0; pass < 3; ++pass) {
        std::unique_ptr<Setup> setup =
            makeSetup(opts.seed, *tracers[pass], res);
        const double t0 = nowSec();
        counts[pass] = traceWork(opts, *setup, *tracers[pass], res);
        work_sec[pass] = nowSec() - t0;
    }
    if (!(counts[0] == counts[1]) || !(counts[2] == counts[1]))
        res.fail("layer counts differ between the untraced and the "
                 "traced passes");
    const double untraced_sec = 0.5 * (work_sec[0] + work_sec[2]);
    if (!opts.traceOut.empty() && !traced.write(opts.traceOut))
        res.fail("cannot write " + opts.traceOut);

    const std::vector<e2e::SpanRecord> spans = traced.spans();
    const PassCounts &pc = counts[1];
    const LayerCounts &lc = pc.layers;
    auto med = [&](const char *name, double scale) {
        return e2e::median(perRequest(spans, name, scale));
    };
    auto each = [&](const char *name, double scale) {
        std::vector<double> d = traced.durations(name);
        for (double &x : d)
            x *= scale;
        return e2e::median(d);
    };
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    const std::size_t n_cold = perRequest(spans, "cold.query", 1.0).size();
    const std::string per_query = csprintf("median of %zu queries", n_cold);

    std::vector<Metric> m = {
        {"models.build_ms", med("models.build", 1e3), "ms", per_query},
        {"data.synth_ms", med("data.synth", 1e3), "ms", per_query},
        {"harness.make_workload_ms", med("harness.make_workload", 1e3), "ms",
         per_query},
        {"nn.lower_ms", med("nn.lower", 1e3), "ms", per_query},
        {"nn.lower_calls", count(lc.lowerCalls), "count", "total"},
        {"nn.kernels_emitted", count(lc.kernelsEmitted), "count",
         csprintf("over %" PRIu64 " lowerings", lc.lowerCalls)},
        {"nn.autotune_entries", count(lc.autotuneEntries), "count", "total"},
        {"sim.exec_cold_ms", med("sim.exec_cold", 1e3), "ms", per_query},
        {"sim.exec_warm_ms", med("sim.exec_warm", 1e3), "ms", per_query},
        {"sim.timing_lookups", count(lc.timingLookups), "count",
         csprintf("over %" PRIu64 " kernel streams", lc.lowerCalls)},
        {"sim.unique_kernels", count(lc.uniqueKernels), "count",
         csprintf("of %" PRIu64 " lookups", lc.timingLookups)},
        {"sim.timing_hit_rate",
         lc.timingLookups ? count(lc.timingHits) / count(lc.timingLookups)
                          : 0.0,
         "ratio",
         csprintf("%" PRIu64 "/%" PRIu64 " lookups", lc.timingHits,
                  lc.timingLookups)},
        {"profiler.warm_ms", med("profiler.warm", 1e3), "ms", per_query},
        {"profiler.warm_infer_ms", med("profiler.warm_infer", 1e3), "ms",
         per_query},
        {"profiler.epoch_ms", med("profiler.epoch", 1e3), "ms", per_query},
        {"profiler.unique_sls", count(lc.uniqueSls), "count", "total"},
        {"core.slstats_us", med("core.slstats", 1e6), "us", per_query},
        {"core.select_us", med("core.select", 1e6), "us", per_query},
        {"core.project_us", med("core.project", 1e6), "us", per_query},
        {"core.bins_used", count(lc.binsUsed), "count", "total"},
        {"harness.snapshot_encode_ms", each("harness.snapshot_encode", 1e3),
         "ms", "median per snapshot"},
        {"harness.snapshot_decode_ms", each("harness.snapshot_decode", 1e3),
         "ms", "median per snapshot"},
        {"harness.snapshot_bytes", count(pc.snapshotBytes), "bytes",
         "total"},
        {"harness.registry_acquire_ms", each("harness.registry_acquire", 1e3),
         "ms", "median per store hit"},
        {"harness.registry_builds", count(pc.registryBuilds), "count",
         "total"},
        {"harness.registry_disk_hits", count(pc.registryDiskHits), "count",
         "total"},
        {"harness.registry_memory_hits", count(pc.registryMemoryHits),
         "count", "total"},
        {"service.submit_us", each("service.submit", 1e6), "us",
         samples(traced.durations("service.submit").size())},
        {"service.warm_query_us", each("service.warm_query", 1e6), "us",
         samples(traced.durations("service.warm_query").size())},
        {"service.cold_build_ms", each("service.cold_build", 1e3), "ms",
         samples(traced.durations("service.cold_build").size())},
        {"service.cold_builds", count(pc.serviceColdBuilds), "count",
         "total"},
        {"service.warm_hits", count(pc.serviceWarmHits), "count", "total"},
        {"service.shed", count(pc.serviceShed), "count", "total"},
        {"service.warm_pairs", count(pc.warmPairs), "count", "total"},
        {"trace.overhead_pct",
         100.0 * (work_sec[1] - untraced_sec) / untraced_sec, "%",
         csprintf("traced %.3fs vs untraced %.3fs and %.3fs", work_sec[1],
                  work_sec[0], work_sec[2])},
        {"trace.replay_coverage_pct", e2e::median(replayCoverage(spans)), "%",
         per_query},
    };
    printResult(opts, m, res);
    return res.problems.empty() ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opts.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            opts.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end)
                return false;
        } else if (key == "--seconds") {
            opts.seconds = std::strtod(val.c_str(), &end);
            if (*end || !(opts.seconds > 0.0))
                return false;
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return false;
            opts.trace = val == "1";
        } else if (key == "--workdir") {
            opts.workdir = val;
        } else if (key == "--trace-out") {
            opts.traceOut = val;
        } else if (key == "--source") {
            opts.source = val;
        } else if (key == "--commit") {
            opts.commit = val;
        } else {
            return false;
        }
    }
    if (argc % 2 == 0 || !have_workload)
        return false;
    if (opts.workload == "cold_query")
        opts.primary = Phase::Cold;
    else if (opts.workload == "fig_sweep")
        opts.primary = Phase::Fig;
    else if (opts.workload == "warm_service")
        opts.primary = Phase::Warm;
    else
        return false;
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: %s --workload cold_query|fig_sweep|"
                     "warm_service --seed N --seconds S --trace 0|1 "
                     "[--workdir DIR] [--trace-out FILE] [--source ID] "
                     "[--commit ID]\n",
                     argv[0]);
        return 2;
    }
    setQuietLogging(true);
    std::printf("# e2e workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                opts.workload.c_str(), opts.seed, opts.seconds,
                opts.trace ? 1 : 0);
    std::error_code ec;
    std::filesystem::create_directories(opts.workdir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", opts.workdir.c_str(),
                     ec.message().c_str());
        return 2;
    }
    return opts.trace ? runTraced(opts) : runUntraced(opts);
}
