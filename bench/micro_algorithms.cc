/**
 * @file
 * google-benchmark microbenchmarks for the SeqPoint core algorithms:
 * SL-stat construction, binning, the full refinement loop, k-means,
 * and the baseline selectors. These quantify the (tiny) analysis cost
 * the methodology adds on top of the single profiled epoch.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "core/baselines.hh"
#include "core/kmeans.hh"
#include "core/seqpoint.hh"

using namespace seqpoint;

namespace {

std::vector<core::IterationSample>
syntheticEpoch(size_t iterations, size_t unique)
{
    Rng rng(7);
    std::vector<int64_t> sls;
    int64_t sl = 10;
    for (size_t i = 0; i < unique; ++i) {
        sl += rng.uniformInt(1, 4);
        sls.push_back(sl);
    }
    std::vector<core::IterationSample> epoch;
    for (size_t i = 0; i < iterations; ++i) {
        int64_t s = sls[rng.weightedIndex(
            std::vector<double>(unique, 1.0))];
        epoch.push_back(core::IterationSample{
            s, 0.1 + 0.002 * static_cast<double>(s)});
    }
    return epoch;
}

void
BM_SlStatsFromIterations(benchmark::State &state)
{
    auto epoch = syntheticEpoch(static_cast<size_t>(state.range(0)),
                                300);
    for (auto _ : state) {
        auto stats = core::SlStats::fromIterations(epoch);
        benchmark::DoNotOptimize(stats);
    }
}
BENCHMARK(BM_SlStatsFromIterations)->Arg(600)->Arg(6000)->Arg(60000);

void
BM_SelectWithBins(benchmark::State &state)
{
    auto stats = core::SlStats::fromIterations(syntheticEpoch(6000,
                                                              500));
    unsigned k = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto set = core::selectWithBins(stats, k);
        benchmark::DoNotOptimize(set);
    }
}
BENCHMARK(BM_SelectWithBins)->Arg(5)->Arg(16)->Arg(64);

void
BM_SelectSeqPointsFullLoop(benchmark::State &state)
{
    auto stats = core::SlStats::fromIterations(syntheticEpoch(6000,
                                                              500));
    core::SeqPointOptions opts;
    opts.errorThreshold = 0.002;
    for (auto _ : state) {
        auto set = core::selectSeqPoints(stats, opts);
        benchmark::DoNotOptimize(set);
    }
}
BENCHMARK(BM_SelectSeqPointsFullLoop);

void
BM_KmeansSelector(benchmark::State &state)
{
    auto stats = core::SlStats::fromIterations(syntheticEpoch(6000,
                                                              500));
    unsigned k = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto set = core::selectByKmeans(stats, k);
        benchmark::DoNotOptimize(set);
    }
}
BENCHMARK(BM_KmeansSelector)->Arg(8)->Arg(16);

void
BM_PriorSelector(benchmark::State &state)
{
    auto epoch = syntheticEpoch(6000, 500);
    for (auto _ : state) {
        auto set = core::selectPrior(epoch, 300, 50);
        benchmark::DoNotOptimize(set);
    }
}
BENCHMARK(BM_PriorSelector);

void
BM_WorstSelector(benchmark::State &state)
{
    auto stats = core::SlStats::fromIterations(syntheticEpoch(6000,
                                                              500));
    for (auto _ : state) {
        auto set = core::selectWorst(stats);
        benchmark::DoNotOptimize(set);
    }
}
BENCHMARK(BM_WorstSelector);

} // anonymous namespace

BENCHMARK_MAIN();
