/**
 * @file
 * google-benchmark microbenchmarks for the simulation substrate:
 * kernel timing, iteration lowering + execution, the set-associative
 * cache simulator, and the measured autotune pass. These bound how
 * long the figure benches take per simulated epoch.
 */

#include <benchmark/benchmark.h>

#include "common/strutil.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"
#include "sim/cache_sim.hh"
#include "sim/gpu.hh"

using namespace seqpoint;

namespace {

void
BM_TimeSingleKernel(benchmark::State &state)
{
    // The timing model itself: what a timing-cache miss costs.
    sim::GpuConfig cfg = sim::GpuConfig::config1();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    sim::KernelDesc k = nn::resolveKernel(
        nn::makeGemm(sim::KernelStem("bm"), 2048, 2048, 1024), tuner);
    for (auto _ : state) {
        auto kt = sim::timeKernel(k, cfg);
        benchmark::DoNotOptimize(kt);
    }
}
BENCHMARK(BM_TimeSingleKernel);

void
BM_TimeSingleKernelCached(benchmark::State &state)
{
    // Same kernel through the kernel-timing cache: after the first
    // launch every execute() is a signature lookup + replay.
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    sim::KernelDesc k = nn::resolveKernel(
        nn::makeGemm(sim::KernelStem("bm"), 2048, 2048, 1024), tuner);
    for (auto _ : state) {
        auto rec = gpu.execute(k);
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_TimeSingleKernelCached);

void
BM_LowerGnmtIteration(benchmark::State &state)
{
    nn::Model model = models::buildGnmt();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    int64_t sl = state.range(0);
    for (auto _ : state) {
        auto ks = model.lowerIteration(64, sl, tuner);
        benchmark::DoNotOptimize(ks);
    }
    state.SetLabel("kernels per iteration vary with SL");
}
BENCHMARK(BM_LowerGnmtIteration)->Arg(20)->Arg(100)->Arg(200);

void
BM_SimulateDs2IterationCached(benchmark::State &state)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    nn::Model model = models::buildDs2();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    int64_t sl = state.range(0);
    auto ks = model.lowerIteration(64, sl, tuner);
    for (auto _ : state) {
        auto res = gpu.executeAll(ks);
        benchmark::DoNotOptimize(res);
    }
    state.SetLabel(csprintf("hit rate %.1f%%",
        100.0 * gpu.timingCacheStats().hitRate()));
}
BENCHMARK(BM_SimulateDs2IterationCached)->Arg(100)->Arg(400);

void
BM_CacheSimAccesses(benchmark::State &state)
{
    sim::CacheSim cache(16 * 1024, 4, 64);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr += 64;
    }
}
BENCHMARK(BM_CacheSimAccesses);

void
BM_MeasuredAutotunePerShape(benchmark::State &state)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    int64_t n = 64;
    for (auto _ : state) {
        nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &gpu);
        benchmark::DoNotOptimize(tuner.select(4096, n, 1024));
        ++n; // new shape each time: no cache hit
    }
}
BENCHMARK(BM_MeasuredAutotunePerShape);

} // anonymous namespace

BENCHMARK_MAIN();
