/**
 * @file
 * Figure-pipeline implementation.
 */

#include "harness/figures.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"

namespace seqpoint {
namespace harness {

namespace {

/** Evaluate one configuration's figure column on an experiment. */
FigureColumn
evalColumn(Experiment &exp, const sim::GpuConfig &cfg,
           const std::map<core::SelectorKind, core::SeqPointSet> &sels)
{
    FigureColumn col;
    col.config = cfg.name;
    col.actualSec = exp.actualTrainSec(cfg);
    col.actualThroughput = exp.actualThroughput(cfg);
    col.projectedSec.reserve(selectorOrder().size());
    col.projectedThroughput.reserve(selectorOrder().size());
    for (core::SelectorKind kind : selectorOrder()) {
        const core::SeqPointSet &sel = sels.at(kind);
        col.projectedSec.push_back(exp.projectedTrainSec(sel, cfg));
        col.projectedThroughput.push_back(
            exp.projectedThroughput(sel, cfg));
    }
    return col;
}

unsigned
defaultThreads(unsigned threads)
{
    return threads ? threads
                   : std::max(1u, std::thread::hardware_concurrency());
}

} // anonymous namespace

const std::vector<core::SelectorKind> &
selectorOrder()
{
    static const std::vector<core::SelectorKind> order = {
        core::SelectorKind::Worst, core::SelectorKind::Frequent,
        core::SelectorKind::Median, core::SelectorKind::Prior,
        core::SelectorKind::SeqPoint,
    };
    return order;
}

bool
FigureSweep::identicalTo(const FigureSweep &other) const
{
    if (columns.size() != other.columns.size() ||
        selections != other.selections)
        return false;
    for (size_t c = 0; c < columns.size(); ++c) {
        const FigureColumn &ca = columns[c];
        const FigureColumn &cb = other.columns[c];
        if (ca.config != cb.config || ca.actualSec != cb.actualSec ||
            ca.actualThroughput != cb.actualThroughput ||
            ca.projectedSec != cb.projectedSec ||
            ca.projectedThroughput != cb.projectedThroughput)
            return false;
    }
    return true;
}

FigureSweep
runFigureSweepSerial(const WorkloadFactory &make,
                     unsigned profile_threads)
{
    auto cfgs = sim::GpuConfig::table2();
    Experiment exp(make());
    exp.setProfileThreads(defaultThreads(profile_threads));

    FigureSweep sweep;
    sweep.selections = exp.buildAllSelections(cfgs[0]);
    sweep.columns.reserve(cfgs.size());
    for (const auto &cfg : cfgs)
        sweep.columns.push_back(evalColumn(exp, cfg, sweep.selections));
    return sweep;
}

FigureSweep
runFigureSweepScheduled(const WorkloadFactory &make, unsigned threads,
                        SnapshotRegistry *registry,
                        unsigned cell_retries)
{
    auto cfgs = sim::GpuConfig::table2();
    unsigned t = defaultThreads(threads);

    // Phase 1 -- shared cold start: lower/autotune the model, run the
    // reference epoch (inner-parallel per-SL sweep) and build every
    // selection once, then freeze it all into one snapshot. With a
    // registry that build is acquired through it instead -- reused if
    // something already paid it, persisted for later consumers if not.
    std::shared_ptr<const ModelSnapshot> snap;
    if (registry) {
        snap = registry->acquire(make, cfgs[0], t);
    } else {
        Experiment ref(make());
        ref.setProfileThreads(t);
        snap = ref.snapshot(cfgs[0]);
    }

    // Phase 2 -- one scheduler cell per configuration. Without a
    // registry every cell is seeded from the reference snapshot (the
    // reference cell replays from it; the others pay their own
    // configuration's state). With one, each cell acquires its own
    // configuration's snapshot, so non-reference cold starts are
    // shared and persisted too. Projections use the shared reference
    // selections either way, so no cell rebuilds them.
    ExperimentScheduler sched(
        std::min<unsigned>(t, static_cast<unsigned>(cfgs.size())));
    sched.setCellRetries(cell_retries);
    std::function<FigureColumn(Experiment &, const sim::GpuConfig &)>
        eval = [&snap](Experiment &exp, const sim::GpuConfig &cfg) {
            return evalColumn(exp, cfg, snap->selections);
        };

    FigureSweep sweep;
    if (registry) {
        sweep.columns =
            sched.mapCells<FigureColumn>({make}, cfgs, eval, *registry);
    } else {
        sweep.columns = sched.mapCells<FigureColumn>({make}, cfgs, eval,
                                                     {snap});
    }
    sweep.selections = snap->selections;
    return sweep;
}

bool
SensitivitySweep::identicalTo(const SensitivitySweep &other) const
{
    return sls == other.sls && configs == other.configs &&
        iterSec == other.iterSec && batchSize == other.batchSize;
}

namespace {

std::vector<int64_t>
sweepSls(int64_t sl_lo, int64_t sl_hi, int64_t step)
{
    panic_if(step <= 0, "sensitivity sweep: non-positive step %lld",
             static_cast<long long>(step));
    std::vector<int64_t> sls;
    for (int64_t sl = sl_lo; sl <= sl_hi; sl += step)
        sls.push_back(sl);
    return sls;
}

} // anonymous namespace

SensitivitySweep
runSensitivitySweepSerial(const WorkloadFactory &make, int64_t sl_lo,
                          int64_t sl_hi, int64_t step,
                          unsigned profile_threads)
{
    auto cfgs = sim::GpuConfig::table2();
    Experiment exp(make());
    exp.setProfileThreads(defaultThreads(profile_threads));

    SensitivitySweep sweep;
    sweep.sls = sweepSls(sl_lo, sl_hi, step);
    sweep.batchSize = exp.workload().batchSize;
    for (const auto &cfg : cfgs) {
        sweep.configs.push_back(cfg.name);
        exp.warmIterProfiles(cfg, sweep.sls);
        std::vector<double> times;
        times.reserve(sweep.sls.size());
        for (int64_t sl : sweep.sls)
            times.push_back(exp.iterTime(cfg, sl));
        sweep.iterSec.push_back(std::move(times));
    }
    return sweep;
}

SensitivitySweep
runSensitivitySweepScheduled(const WorkloadFactory &make, int64_t sl_lo,
                             int64_t sl_hi, int64_t step,
                             unsigned threads,
                             SnapshotRegistry *registry,
                             unsigned cell_retries)
{
    auto cfgs = sim::GpuConfig::table2();
    unsigned t = defaultThreads(threads);
    std::vector<int64_t> sls = sweepSls(sl_lo, sl_hi, step);

    // Cells report the workload batch size alongside their times so
    // no throwaway Workload needs to be built just to read it.
    struct CellResult {
        std::vector<double> times;
        unsigned batch = 0;
    };

    ExperimentScheduler sched(
        std::min<unsigned>(t, static_cast<unsigned>(cfgs.size())));
    sched.setCellRetries(cell_retries);
    std::function<CellResult(Experiment &, const sim::GpuConfig &)>
        eval = [&sls](Experiment &exp, const sim::GpuConfig &cfg) {
            exp.warmIterProfiles(cfg, sls);
            CellResult r;
            r.batch = exp.workload().batchSize;
            r.times.reserve(sls.size());
            for (int64_t sl : sls)
                r.times.push_back(exp.iterTime(cfg, sl));
            return r;
        };

    // Lookup-only seeding: a sensitivity sweep profiles a handful of
    // SLs and must never pay an epoch it does not need, so cells only
    // adopt snapshots the registry already holds (typically from a
    // sibling figure sweep) -- the autotune decisions plus any
    // overlapping per-SL profiles come for free, and the swept SLs
    // they miss are lowered and their kernels timed afresh on the
    // cell's device (bit-identically).
    ExperimentScheduler::SnapshotProvider provider;
    if (registry) {
        provider = [registry](std::size_t, const sim::GpuConfig &cfg,
                              Experiment &exp) {
            return registry->cached(snapshotKeyFor(
                exp.workload(), exp.options(), cfg));
        };
    }

    std::vector<CellResult> cells =
        sched.mapCells<CellResult>({make}, cfgs, eval, provider);

    SensitivitySweep sweep;
    sweep.sls = std::move(sls); // after the cells are done with it
    sweep.batchSize = cells.empty() ? 0 : cells.front().batch;
    for (CellResult &cell : cells)
        sweep.iterSec.push_back(std::move(cell.times));
    for (const auto &cfg : cfgs)
        sweep.configs.push_back(cfg.name);
    return sweep;
}

} // namespace harness
} // namespace seqpoint
