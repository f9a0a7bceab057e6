/**
 * @file
 * Autotuner implementation.
 */

#include "nn/autotune.hh"

#include <cmath>

#include "common/logging.hh"
#include "nn/kernel_gen.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace nn {

const std::vector<GemmVariant> &
gemmVariantMenu()
{
    static const std::vector<GemmVariant> menu = {
        {128, 128, 16},
        {128, 64, 16},
        {64, 64, 16},
        {64, 32, 16},
        {32, 32, 16},
        {16, 16, 16},
    };
    return menu;
}

Autotuner::Autotuner(Mode tune_mode, const sim::Gpu *device)
    : mode(tune_mode), gpu(device)
{
    fatal_if(tune_mode == Mode::Measured && device == nullptr,
             "Measured autotune mode requires a device");
    if (tune_mode != Mode::Measured)
        return;
    // A GEMM's per-CU working set and L1 reuse depend only on its
    // tile, so each menu tile's L1 hit fraction on this device is the
    // same for every shape: take it from the tile's own descriptor.
    for (const GemmVariant &v : gemmVariantMenu()) {
        tileL1Hit.push_back(sim::l1HitFraction(
            gemmKernelForVariant(sim::KernelStem(), 1, 1, 1, v),
            gpu->config()));
    }
}

const GemmVariant &
Autotuner::select(int64_t m, int64_t n, int64_t k)
{
    ShapeKey key{m, n, k};

    // std::map nodes are stable, so the returned reference survives
    // later insertions by other threads once the lock is released.
    {
        MutexLock lock(mu);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    // Tune outside the lock so an untuned shape doesn't serialize
    // every concurrent select(). Both policies are pure functions of
    // the shape, so racing threads compute identical variants and
    // emplace keeps the first.
    GemmVariant chosen = tune(m, n, k);

    MutexLock lock(mu);
    return cache.emplace(key, chosen).first->second;
}

GemmVariant
Autotuner::tune(int64_t m, int64_t n, int64_t k) const
{
    panic_if(m <= 0 || n <= 0 || k <= 0,
             "Autotuner: non-positive GEMM dims %lld x %lld x %lld",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k));
    return mode == Mode::Heuristic ? chooseHeuristic(m, n, k)
                                   : chooseMeasured(m, n, k);
}

size_t
Autotuner::cacheSize() const
{
    MutexLock lock(mu);
    return cache.size();
}

GemmVariant
Autotuner::chooseHeuristic(int64_t m, int64_t n, int64_t k) const
{
    // Cost model: blocked-GEMM memory traffic plus a padding-waste
    // penalty for tiles that overhang the matrix edges. Mirrors what
    // rocBLAS' shape heuristics optimise for.
    const auto &menu = gemmVariantMenu();
    double best_cost = 0.0;
    const GemmVariant *best = nullptr;

    for (const GemmVariant &v : menu) {
        double nb_m = std::ceil(static_cast<double>(m) / v.tileM);
        double nb_n = std::ceil(static_cast<double>(n) / v.tileN);
        double traffic =
            static_cast<double>(m) * static_cast<double>(k) * nb_n +
            static_cast<double>(k) * static_cast<double>(n) * nb_m;
        double padded = nb_m * v.tileM * nb_n * v.tileN;
        double waste = padded / (static_cast<double>(m) *
            static_cast<double>(n));
        double cost = traffic * waste;
        if (best == nullptr || cost < best_cost) {
            best = &v;
            best_cost = cost;
        }
    }
    return *best;
}

GemmVariant
Autotuner::chooseMeasured(int64_t m, int64_t n, int64_t k) const
{
    // Probes go straight to the timing model, not through the device:
    // the losing variants never launch for real, so they stay out of
    // its timing cache. A probe's repeat is 1, and kernelTimeSec()
    // given the tile's L1 hit fraction is timeKernel()'s time, so
    // each probe ranks a variant exactly as timing its launch would.
    static const sim::KernelStem probe("autotune_probe");
    const auto &menu = gemmVariantMenu();
    const sim::GpuConfig &cfg = gpu->config();
    double best_time = 0.0;
    const GemmVariant *best = nullptr;

    for (size_t i = 0; i < menu.size(); ++i) {
        double t = sim::kernelTimeSec(
            gemmKernelForVariant(probe, m, n, k, menu[i]), cfg,
            tileL1Hit[i]);
        if (best == nullptr || t < best_time) {
            best = &menu[i];
            best_time = t;
        }
    }
    return *best;
}

} // namespace nn
} // namespace seqpoint
