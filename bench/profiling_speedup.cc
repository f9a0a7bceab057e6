/**
 * @file
 * Profiling-cost bench: regenerates the section VI-F numbers -- how
 * much less work profiling only the SeqPoints is than profiling a
 * full epoch, as an iteration-count reduction (the paper's 40x /
 * 72x) and as measured time, sequential and parallel (the paper's
 * 214x / 345x).
 */

#include <algorithm>
#include <cstdio>

#include "common/table.hh"
#include "support.hh"

using namespace seqpoint;

namespace {

void
emitPaperTable(Table &table, harness::Experiment &exp)
{
    auto cfg1 = sim::GpuConfig::config1();
    auto sp = exp.buildSelection(core::SelectorKind::SeqPoint, cfg1);

    double epoch = exp.actualTrainSec(cfg1);
    size_t iters = exp.epochLog(cfg1).numIterations();

    double sum_t = 0.0, max_t = 0.0;
    for (const auto &p : sp.points) {
        double t = exp.iterTime(cfg1, p.seqLen);
        sum_t += t;
        max_t = std::max(max_t, t);
    }

    table.addRow({exp.workload().name,
                  csprintf("%zu", iters),
                  csprintf("%zu", sp.points.size()),
                  csprintf("%.0fx", static_cast<double>(iters) /
                           static_cast<double>(sp.points.size())),
                  csprintf("%.0fx", epoch / sum_t),
                  csprintf("%.0fx", epoch / max_t)});
}

} // anonymous namespace

int
main()
{
    harness::Experiment gnmt(harness::makeGnmtWorkload());
    harness::Experiment ds2(harness::makeDs2Workload());

    Table table({"network", "epoch iterations", "SeqPoints",
                 "iteration reduction", "time reduction (sequential)",
                 "time reduction (parallel)"});
    emitPaperTable(table, gnmt);
    emitPaperTable(table, ds2);

    std::printf("%s\n", table.render(
        "Section VI-F: profiling-cost reduction from running only the "
        "SeqPoints").c_str());

    bench::paperNote("paper: 40x (GNMT) and 72x (DS2) fewer "
                     "iterations; 214x and 345x when SeqPoints run in "
                     "parallel on separate machines.");
    return 0;
}
