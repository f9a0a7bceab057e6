/**
 * @file
 * Analytical cache model implementation.
 */

#include "sim/cache_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace seqpoint {
namespace sim {

double
capacityHitFraction(double reuse_max, double working_set, double capacity,
                    double p)
{
    panic_if(reuse_max < 0.0 || reuse_max > 1.0,
             "capacityHitFraction: reuse_max out of [0,1]: %g", reuse_max);
    if (capacity <= 0.0 || reuse_max <= 0.0)
        return 0.0;
    if (working_set <= capacity)
        return reuse_max;
    return reuse_max * std::pow(capacity / working_set, p);
}

MemoryBreakdown
evalMemoryBreakdown(const KernelDesc &desc, const GpuConfig &cfg)
{
    MemoryBreakdown mb;

    // --- Loads ---------------------------------------------------
    // L1: per-CU capacity versus the per-CU working set.
    double l1_cap = static_cast<double>(cfg.l1SizeBytes);
    double h1 = capacityHitFraction(desc.reuseL1, desc.workingSetL1,
                                    l1_cap);

    // L2: chip-wide capacity versus the full working set.
    double l2_cap = static_cast<double>(cfg.l2SizeBytes);
    double h2 = capacityHitFraction(desc.reuseL2, desc.workingSetL2,
                                    l2_cap);

    double loads = desc.bytesIn;
    double l1_load_bytes = loads * h1;
    double l2_load_bytes = (loads - l1_load_bytes) * h2;
    double dram_load_bytes = loads - l1_load_bytes - l2_load_bytes;

    // --- Stores ---------------------------------------------------
    // Streaming stores bypass L1; L2 write coalescing captures a
    // fraction of them while the output tile fits.
    double store_h2 = capacityHitFraction(0.5 * desc.reuseL2,
        desc.workingSetL2, l2_cap);
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

} // namespace sim
} // namespace seqpoint
