/**
 * @file
 * Analytical cache model: converts a kernel's working set and intrinsic
 * reuse into L1/L2 hit fractions for a given device. The parametric
 * form is validated against the set-associative cache simulator
 * (sim/cache_sim.hh) in the test suite and the cache ablation bench.
 *
 * The formulas are inline: the timing model evaluates them once per
 * timed kernel and once per Measured autotune probe.
 */

#ifndef SEQPOINT_SIM_CACHE_MODEL_HH
#define SEQPOINT_SIM_CACHE_MODEL_HH

#include <cmath>

#include "common/logging.hh"
#include "sim/gpu_config.hh"
#include "sim/kernel.hh"

namespace seqpoint {
namespace sim {

/** Where each loaded byte was served from. */
struct MemoryBreakdown {
    double l1Bytes = 0.0;   ///< Bytes served by L1 hits.
    double l2Bytes = 0.0;   ///< Bytes served by L2 hits.
    double dramBytes = 0.0; ///< Bytes served by DRAM.
    double l1HitRate = 0.0; ///< L1 hit fraction of all requests.
    double l2HitRate = 0.0; ///< L2 hit fraction of L1 misses.
};

/** Power-law capacity decay exponent the timing model uses. */
constexpr double capacityDecayExponent = 0.5;

namespace detail {

/** Panic unless `reuse_max` lies in [0, 1]. */
inline void
checkReuse(double reuse_max)
{
    panic_if(reuse_max < 0.0 || reuse_max > 1.0,
             "capacityHitFraction: reuse_max out of [0,1]: %g", reuse_max);
}

/**
 * Capacity decay factor: 1 while the working set fits, otherwise
 * (capacity / working_set)^p. Only meaningful for capacity > 0.
 */
inline double
capacityDecay(double working_set, double capacity, double p)
{
    return working_set <= capacity ? 1.0
                                   : std::pow(capacity / working_set, p);
}

} // namespace detail

/**
 * Capacity-limited hit fraction.
 *
 * Intrinsic reuse `reuse_max` is achieved while the working set fits;
 * beyond capacity the hit rate decays as (capacity / working_set)^p,
 * the standard power-law capacity model. The result is computed as
 * reuse_max * decay, where the decay factor is 1 while the working
 * set fits, so evalMemoryBreakdown() can apply one decay factor to
 * several reuse levels and get these exact bits for each.
 *
 * The default exponent p = 0.5 (capacityDecayExponent, which the
 * timing model uses for L2) is a model choice, not a fit to the
 * cache simulator: every figure's kernel timings depend on it, so it
 * stays fixed. The simulator decays faster on random reuse. On the
 * hot/cold mix (64 KiB hot set, 60% of accesses hot, 8-way, 64 B
 * lines) it measures 0.088 / 0.169 / 0.315 at 16 / 32 / 64 KiB,
 * roughly 0.55x the p = 1 law (0.15 / 0.30 / 0.60) and well under
 * p = 0.5 (0.30 / 0.42 / 0.60). CacheModelValidation in the test
 * suite pins that relation.
 *
 * @param reuse_max Hit fraction with infinite capacity, in [0, 1].
 * @param working_set Kernel working set in bytes.
 * @param capacity Cache capacity in bytes (0 means no cache).
 * @param p Decay exponent.
 * @return Hit fraction in [0, reuse_max].
 */
inline double
capacityHitFraction(double reuse_max, double working_set, double capacity,
                    double p = capacityDecayExponent)
{
    detail::checkReuse(reuse_max);
    if (capacity <= 0.0 || reuse_max <= 0.0)
        return 0.0;
    return reuse_max * detail::capacityDecay(working_set, capacity, p);
}

/**
 * @return The kernel's L1 hit fraction on a device: per-CU capacity
 *         versus the per-CU working set.
 */
inline double
l1HitFraction(const KernelDesc &desc, const GpuConfig &cfg)
{
    return capacityHitFraction(desc.reuseL1, desc.workingSetL1,
                               static_cast<double>(cfg.l1SizeBytes));
}

/**
 * Evaluate the full L1 -> L2 -> DRAM breakdown for a kernel's loads,
 * given the kernel's L1 hit fraction.
 *
 * The L1 hit fraction is an argument because it depends only on the
 * kernel's per-CU working set and L1 reuse: a Measured autotuner
 * computes it once per menu tile and reuses it for every probe of
 * that tile. The L2 decay factor is computed once and serves both the
 * load and the store hit fractions.
 *
 * Stores are modelled write-through/streaming: they bypass L1, may
 * coalesce in L2 (half of the L2 load reuse), and otherwise drain to
 * DRAM. The returned breakdown covers loads and stores combined.
 *
 * @param desc Kernel descriptor.
 * @param cfg Device configuration.
 * @param h1 The kernel's L1 hit fraction, l1HitFraction(desc, cfg).
 */
inline MemoryBreakdown
evalMemoryBreakdown(const KernelDesc &desc, const GpuConfig &cfg,
                    double h1)
{
    MemoryBreakdown mb;

    // L2: chip-wide capacity versus the full working set. Loads hit at
    // the full L2 reuse; streaming stores coalesce at half of it while
    // the output tile fits. Both decay by the same capacity factor.
    double r2 = desc.reuseL2;
    detail::checkReuse(r2);
    double l2_cap = static_cast<double>(cfg.l2SizeBytes);
    double h2 = 0.0;
    double store_h2 = 0.0;
    if (l2_cap > 0.0 && r2 > 0.0) {
        double decay = detail::capacityDecay(desc.workingSetL2, l2_cap,
                                             capacityDecayExponent);
        h2 = r2 * decay;
        store_h2 = (0.5 * r2) * decay;
    }

    // --- Loads ---------------------------------------------------
    double loads = desc.bytesIn;
    double l1_load_bytes = loads * h1;
    double l2_load_bytes = (loads - l1_load_bytes) * h2;
    double dram_load_bytes = loads - l1_load_bytes - l2_load_bytes;

    // --- Stores ---------------------------------------------------
    double stores = desc.bytesOut;
    double l2_store_bytes = stores * store_h2;
    double dram_store_bytes = stores - l2_store_bytes;

    mb.l1Bytes = l1_load_bytes;
    mb.l2Bytes = l2_load_bytes + l2_store_bytes;
    mb.dramBytes = dram_load_bytes + dram_store_bytes;
    mb.l1HitRate = loads > 0.0 ? h1 : 0.0;
    mb.l2HitRate = h2;
    return mb;
}

/**
 * Evaluate the full L1 -> L2 -> DRAM breakdown for a kernel's loads
 * and stores (see the three-argument form).
 *
 * @param desc Kernel descriptor.
 * @param cfg Device configuration.
 */
inline MemoryBreakdown
evalMemoryBreakdown(const KernelDesc &desc, const GpuConfig &cfg)
{
    return evalMemoryBreakdown(desc, cfg, l1HitFraction(desc, cfg));
}

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_CACHE_MODEL_HH
