/**
 * @file
 * Whole-kernel timing: combines the compute model, analytical cache
 * model and DRAM model into a roofline-with-overheads estimate plus a
 * full counter bundle.
 *
 * There is one timing model, inline: timeKernel() and the Measured
 * autotuner's probes (kernelTimeSec()) both evaluate the same core,
 * detail::evalTiming(). A probe supplies its tile's precomputed L1
 * hit fraction and reads only the time; timeKernel() computes the L1
 * hit fraction itself and fills the counter bundle.
 */

#ifndef SEQPOINT_SIM_TIMING_MODEL_HH
#define SEQPOINT_SIM_TIMING_MODEL_HH

#include <algorithm>

#include "sim/cache_model.hh"
#include "sim/compute_model.hh"
#include "sim/counters.hh"
#include "sim/dram_model.hh"
#include "sim/gpu_config.hh"
#include "sim/kernel.hh"
#include "sim/occupancy.hh"

namespace seqpoint {
namespace sim {

/** Result of timing a single kernel launch. */
struct KernelTiming {
    double timeSec = 0.0;       ///< Wall time incl. launch overhead.
    double computeSec = 0.0;    ///< Pure compute component.
    double memorySec = 0.0;     ///< Memory-service component.
    bool memoryBound = false;   ///< True when memory dominates.
    PerfCounters counters;      ///< Counters for this launch.
};

namespace detail {

/** Every term the timing model derives for one launch. */
struct TimingTerms {
    ComputeEstimate compute; ///< Compute-side estimate.
    MemoryBreakdown memory;  ///< L1/L2/DRAM byte split.
    DramService dram;        ///< DRAM read time and write stall.
    double computeSec = 0.0; ///< Compute time incl. L1-miss stalls.
    double memorySec = 0.0;  ///< Slowest memory-hierarchy stage.
    double bodySec = 0.0;    ///< max(computeSec, memorySec).
    double timeSec = 0.0;    ///< Wall time incl. launch overhead.
};

/**
 * The timing model's core.
 *
 * @param desc Kernel descriptor.
 * @param cfg Device configuration.
 * @param h1 The kernel's L1 hit fraction (l1HitFraction()).
 */
inline TimingTerms
evalTiming(const KernelDesc &desc, const GpuConfig &cfg, double h1)
{
    TimingTerms t;
    Occupancy occ = computeOccupancy(desc, cfg);
    t.compute = estimateCompute(desc, occ, cfg);
    t.memory = evalMemoryBreakdown(desc, cfg, h1);
    const MemoryBreakdown &mb = t.memory;

    // Hierarchical service time. Each level serves its share at its
    // own bandwidth; levels pipeline, so the slowest stage dominates.
    // When a level is disabled, its share was already folded into the
    // lower levels by the cache model (capacity 0 -> zero hits), and
    // its bandwidth reads zero.
    double l1_bw = cfg.l1Bandwidth();
    double l2_bw = cfg.l2Bandwidth();
    double t_l1 = l1_bw > 0.0 ? mb.l1Bytes / l1_bw : 0.0;
    double t_l2 = l2_bw > 0.0 ? mb.l2Bytes / l2_bw : 0.0;

    // Split DRAM traffic back into read/write shares proportionally.
    double dram_write_share = desc.totalBytes() > 0.0
        ? desc.bytesOut / desc.totalBytes() : 0.0;
    double dram_wr_bytes = mb.dramBytes * dram_write_share;
    double dram_rd_bytes = mb.dramBytes - dram_wr_bytes;

    t.dram = serviceDram(desc.klass, dram_rd_bytes, dram_wr_bytes,
                         t.compute.timeSec, cfg);

    // Un-hidden L1-miss latency: reuse the kernel counted on that is
    // not captured (capacity pressure or a disabled L1) shows up as
    // issue stalls that lengthen the compute phase.
    double missing_l1_reuse = std::max(0.0,
        desc.reuseL1 - mb.l1HitRate);
    t.computeSec = t.compute.timeSec * (1.0 + missing_l1_reuse);
    t.memorySec = std::max({t_l1, t_l2, t.dram.readTimeSec});

    t.bodySec = std::max(t.computeSec, t.memorySec);
    t.timeSec = cfg.launchOverheadSec + t.bodySec + t.dram.writeStallSec;
    return t;
}

} // namespace detail

/**
 * Wall time of one launch, given its L1 hit fraction: exactly
 * timeKernel(desc, cfg).timeSec when `h1` is l1HitFraction(desc, cfg),
 * without building the counter bundle. A Measured autotuner computes
 * `h1` once per menu tile (it depends only on the tile and the device)
 * and probes every shape through this.
 *
 * @param desc Kernel descriptor.
 * @param cfg Device configuration.
 * @param h1 The kernel's L1 hit fraction.
 */
inline double
kernelTimeSec(const KernelDesc &desc, const GpuConfig &cfg, double h1)
{
    return detail::evalTiming(desc, cfg, h1).timeSec;
}

/**
 * Time a kernel on a device.
 *
 * Execution time is launch overhead plus the maximum of the compute
 * time and the hierarchical memory service time (L1/L2/DRAM at their
 * respective bandwidths), plus any non-overlappable write stall. The
 * formulas live in detail::evalTiming(), which autotune probes share.
 *
 * @param desc Kernel descriptor.
 * @param cfg Device configuration.
 */
inline KernelTiming
timeKernel(const KernelDesc &desc, const GpuConfig &cfg)
{
    detail::TimingTerms t =
        detail::evalTiming(desc, cfg, l1HitFraction(desc, cfg));

    KernelTiming kt;
    kt.timeSec = t.timeSec;
    kt.computeSec = t.computeSec;
    kt.memorySec = t.memorySec;
    kt.memoryBound = t.memorySec > t.computeSec;

    PerfCounters &c = kt.counters;
    c.kernelsLaunched = 1;
    c.valuInsts = t.compute.valuInsts;
    c.saluInsts = t.compute.saluInsts;
    c.bytesLoaded = desc.bytesIn;
    c.bytesStored = desc.bytesOut;
    c.l1HitBytes = t.memory.l1Bytes;
    c.l2HitBytes = t.memory.l2Bytes;
    c.dramBytes = t.memory.dramBytes;
    c.writeStallSec = t.dram.writeStallSec;
    c.busySec = t.bodySec + t.dram.writeStallSec;
    c.launchSec = cfg.launchOverheadSec;
    return kt;
}

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_TIMING_MODEL_HH
