/**
 * @file
 * Ablations over the SeqPoint design choices called out in DESIGN.md:
 * the error threshold e, the initial bin count, the binning mode, the
 * representative-pick rule, and the batch size of the underlying run.
 */

#include <cstdio>

#include "common/table.hh"
#include "common/units.hh"
#include "sim/access_gen.hh"
#include "sim/cache_model.hh"
#include "support.hh"

using namespace seqpoint;

namespace {

double
crossConfigGeomean(harness::Experiment &exp, const core::SeqPointSet &sel)
{
    std::vector<double> errs;
    for (const auto &cfg : sim::GpuConfig::table2()) {
        errs.push_back(core::timeErrorPercent(
            exp.projectedTrainSec(sel, cfg), exp.actualTrainSec(cfg)));
    }
    return geomean(errs, bench::kErrorGeomeanFloor);
}

void
sweepErrorThreshold(harness::Experiment &exp)
{
    auto stats = exp.slStats(sim::GpuConfig::config1());
    Table table({"e", "SeqPoints", "bins", "self-err",
                 "x-cfg geomean"});
    for (double e : {0.05, 0.02, 0.01, 0.005, 0.002, 0.001}) {
        core::SeqPointOptions opts =
            harness::Experiment::defaultOptions();
        opts.errorThreshold = e;
        auto set = core::selectSeqPoints(stats, opts);
        table.addRow({csprintf("%.1f%%", 100.0 * e),
                      csprintf("%zu", set.points.size()),
                      csprintf("%u", set.binsUsed),
                      csprintf("%.3f%%", 100.0 * set.selfError),
                      csprintf("%.3f%%",
                               crossConfigGeomean(exp, set))});
    }
    std::printf("%s\n", table.render(csprintf(
        "Ablation (%s): error threshold e vs SeqPoint count and "
        "accuracy", exp.workload().name.c_str())).c_str());
}

void
sweepPolicies(harness::Experiment &exp)
{
    auto stats = exp.slStats(sim::GpuConfig::config1());
    Table table({"binning", "rep pick", "SeqPoints", "self-err",
                 "x-cfg geomean"});

    const std::pair<core::BinningMode, const char *> modes[] = {
        {core::BinningMode::EqualWidth, "equal-width"},
        {core::BinningMode::EqualFrequency, "equal-freq"},
    };
    const std::pair<core::RepPick, const char *> picks[] = {
        {core::RepPick::ClosestToAvgStat, "avg-stat (paper)"},
        {core::RepPick::ClosestToWeightedAvgStat, "weighted-avg-stat"},
        {core::RepPick::ClosestToAvgSl, "avg-SL"},
        {core::RepPick::MostFrequent, "most-frequent"},
    };

    for (auto [mode, mode_name] : modes) {
        for (auto [pick, pick_name] : picks) {
            core::SeqPointOptions opts =
                harness::Experiment::defaultOptions();
            opts.binning = mode;
            opts.repPick = pick;
            auto set = core::selectSeqPoints(stats, opts);
            table.addRow({mode_name, pick_name,
                          csprintf("%zu", set.points.size()),
                          csprintf("%.3f%%", 100.0 * set.selfError),
                          csprintf("%.3f%%",
                                   crossConfigGeomean(exp, set))});
        }
    }
    std::printf("%s\n", table.render(csprintf(
        "Ablation (%s): binning mode x representative pick",
        exp.workload().name.c_str())).c_str());
}

void
sweepCacheCapacity()
{
    // The capacity ablation behind the analytical cache model: hit
    // rate versus capacity for the three synthetic stream classes,
    // measured through the cache simulator, against the power-law
    // prediction for the hot/cold mix.
    const uint64_t hot = kib(64), cold = mib(8);
    const double hot_frac = 0.6;

    Table table({"capacity", "stream", "blocked GEMM", "hot/cold",
                 "power law (hot/cold)"});
    for (uint64_t cap_kib : {16, 32, 64, 128, 256, 512}) {
        sim::CacheSim cache(kib(cap_kib), 8, 64);
        double stream = sim::measureHitRate(
            cache, [](const sim::AccessSink &sink) {
                sim::genStreaming(mib(4), 64, sink);
            });
        double gemm = sim::measureHitRate(
            cache, [](const sim::AccessSink &sink) {
                sim::genBlockedGemm(256, 256, 256, 64, sink);
            });
        Rng rng(99);
        double hotcold = sim::measureHitRate(
            cache, [&](const sim::AccessSink &sink) {
                sim::genHotCold(100000, hot, cold, hot_frac, rng, sink);
            });
        double law = sim::capacityHitFraction(
            hot_frac, static_cast<double>(hot),
            static_cast<double>(kib(cap_kib)), 1.0);
        table.addRow({csprintf("%llu KiB",
                               static_cast<unsigned long long>(
                                   cap_kib)),
                      csprintf("%.1f%%", 100.0 * stream),
                      csprintf("%.1f%%", 100.0 * gemm),
                      csprintf("%.1f%%", 100.0 * hotcold),
                      csprintf("%.1f%%", 100.0 * law)});
    }
    std::printf("%s\n", table.render(
        "Ablation: cache capacity vs hit rate").c_str());
}

void
sweepBatchSize(uint64_t seed)
{
    // Smaller batches -> more unique SLs (paper section V-A).
    Table table({"batch size", "iterations", "unique SLs",
                 "SeqPoints"});
    for (unsigned batch : {16u, 32u, 64u, 128u}) {
        harness::Workload wl = harness::makeDs2Workload(seed);
        wl.batchSize = batch;
        harness::Experiment exp(std::move(wl));
        auto cfg1 = sim::GpuConfig::config1();
        auto stats = exp.slStats(cfg1);
        auto set = exp.buildSelection(core::SelectorKind::SeqPoint,
                                      cfg1);
        table.addRow({csprintf("%u", batch),
                      csprintf("%zu",
                               exp.epochLog(cfg1).numIterations()),
                      csprintf("%zu", stats.uniqueCount()),
                      csprintf("%zu", set.points.size())});
    }
    std::printf("%s\n", table.render(
        "Ablation (DS2): batch size vs unique-SL count").c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::FigOptions opts = bench::parseFigArgs(argc, argv);
    auto registry = bench::openRegistry(opts);

    harness::Experiment gnmt(harness::makeGnmtWorkload());
    harness::Experiment ds2(harness::makeDs2Workload());

    // With a snapshot store attached, share the Table II cold starts
    // through it; the batch-size variants below run cold either way
    // (different run parameters).
    bench::warmTable2(registry.get(),
                      [] { return harness::makeGnmtWorkload(); }, gnmt);
    bench::warmTable2(registry.get(),
                      [] { return harness::makeDs2Workload(); }, ds2);

    sweepErrorThreshold(gnmt);
    sweepErrorThreshold(ds2);
    sweepPolicies(gnmt);
    sweepPolicies(ds2);
    sweepBatchSize(23);
    sweepCacheCapacity();

    bench::paperNote("design-choice ablations: the paper's "
                     "avg-stat/equal-width choices are competitive "
                     "with the alternatives; smaller batches inflate "
                     "the unique-SL space.");
    return 0;
}
