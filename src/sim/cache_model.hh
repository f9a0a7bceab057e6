/**
 * @file
 * Analytical cache model: converts a kernel's working set and intrinsic
 * reuse into L1/L2 hit fractions for a given device. The parametric
 * form is validated against the set-associative cache simulator
 * (sim/cache_sim.hh) in the test suite and the cache ablation bench.
 */

#ifndef SEQPOINT_SIM_CACHE_MODEL_HH
#define SEQPOINT_SIM_CACHE_MODEL_HH

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

/**
 * Capacity-limited hit fraction.
 *
 * Intrinsic reuse `reuse_max` is achieved while the working set fits;
 * beyond capacity the hit rate decays as (capacity / working_set)^p,
 * the standard power-law capacity model.
 *
 * The default exponent p = 0.5 is a model choice, not a fit to the
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
double capacityHitFraction(double reuse_max, double working_set,
                           double capacity, double p = 0.5);

/**
 * Evaluate the full L1 -> L2 -> DRAM breakdown for a kernel's loads.
 *
 * Stores are modelled write-through/streaming: they bypass L1, may
 * coalesce in L2 (half of the L2 load reuse), and otherwise drain to
 * DRAM. The returned breakdown covers loads and stores combined.
 *
 * @param desc Kernel descriptor.
 * @param cfg Device configuration.
 */
MemoryBreakdown evalMemoryBreakdown(const KernelDesc &desc,
                                    const GpuConfig &cfg);

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_CACHE_MODEL_HH
