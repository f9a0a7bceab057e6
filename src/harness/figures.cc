/**
 * @file
 * Figure-pipeline implementation.
 */

#include "harness/figures.hh"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/bytestream.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "core/seqpoint.hh"

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

/**
 * A figure is only as good as its worst cell: a cell that failed
 * after its retries left a default-constructed result behind, so the
 * sweep fails with the first failed cell's error, in cell order.
 */
void
throwOnFailedCell(const char *sweep,
                  const std::vector<CellTiming> &timings,
                  const std::vector<sim::GpuConfig> &cfgs)
{
    for (std::size_t cell = 0; cell < timings.size(); ++cell) {
        const CellOutcome &outcome = timings[cell].outcome;
        if (!outcome.failed)
            continue;
        throw RecoverableError(Status::error(
            ErrorCode::CellFailed,
            csprintf("%s: cell %s failed after %u attempt(s): %s",
                     sweep, cfgs[cell % cfgs.size()].name.c_str(),
                     outcome.attempts, outcome.error.c_str())));
    }
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

namespace {

/** Append a count and then each value's bit pattern. */
void
encodeDoubles(ByteWriter &w, const std::vector<double> &values)
{
    w.u64(values.size());
    for (double v : values)
        w.f64(v);
}

/**
 * Every field of a sweep, each double as its bit pattern: the image
 * identicalTo compares, so a NaN equals its own copy and -0.0 differs
 * from 0.0.
 */
std::string
sweepBytes(const FigureSweep &sweep)
{
    ByteWriter w;
    w.u64(sweep.columns.size());
    for (const FigureColumn &col : sweep.columns) {
        w.str(col.config);
        w.f64(col.actualSec);
        w.f64(col.actualThroughput);
        encodeDoubles(w, col.projectedSec);
        encodeDoubles(w, col.projectedThroughput);
    }
    w.u64(sweep.selections.size());
    for (const auto &[kind, set] : sweep.selections) {
        w.u64(static_cast<uint64_t>(kind));
        core::encodeSeqPointSet(w, set);
    }
    return w.data();
}

std::string
sweepBytes(const SensitivitySweep &sweep)
{
    ByteWriter w;
    w.u64(sweep.sls.size());
    for (int64_t sl : sweep.sls)
        w.i64(sl);
    w.u64(sweep.configs.size());
    for (const std::string &name : sweep.configs)
        w.str(name);
    w.u64(sweep.iterSec.size());
    for (const std::vector<double> &row : sweep.iterSec)
        encodeDoubles(w, row);
    w.u32(sweep.batchSize);
    return w.data();
}

} // anonymous namespace

bool
FigureSweep::identicalTo(const FigureSweep &other) const
{
    return sweepBytes(*this) == sweepBytes(other);
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

    const std::vector<WorkloadFactory> rows = {make};
    ExperimentScheduler::SnapshotProvider provider;
    if (registry) {
        provider = registrySnapshots(*registry, rows);
    } else {
        provider = [&snap](std::size_t, const sim::GpuConfig &,
                           Experiment &) { return snap; };
    }

    FigureSweep sweep;
    std::vector<CellTiming> timings;
    sweep.columns = sched.mapCells<FigureColumn>(rows, cfgs, eval,
                                                 provider, &timings);
    throwOnFailedCell("figure sweep", timings, cfgs);
    sweep.selections = snap->selections;
    return sweep;
}

bool
SensitivitySweep::identicalTo(const SensitivitySweep &other) const
{
    return sweepBytes(*this) == sweepBytes(other);
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
    // sibling figure sweep) -- any overlapping per-SL profiles come
    // for free, and the swept SLs they miss are folded from the
    // network's shared table of tuned and timed ops, which resolves
    // the ops no earlier cell used (bit-identically).
    ExperimentScheduler::SnapshotProvider provider;
    if (registry) {
        provider = [registry](std::size_t, const sim::GpuConfig &cfg,
                              Experiment &exp) {
            return registry->cached(snapshotKeyFor(
                exp.workload(), exp.options(), cfg));
        };
    }

    std::vector<CellTiming> timings;
    std::vector<CellResult> cells = sched.mapCells<CellResult>(
        {make}, cfgs, eval, provider, &timings);
    throwOnFailedCell("sensitivity sweep", timings, cfgs);

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
