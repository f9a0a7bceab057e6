/**
 * @file
 * HBM/DRAM service model: effective bandwidth under a given access
 * pattern and load, plus write-drain stall estimation.
 */

#ifndef SEQPOINT_SIM_DRAM_MODEL_HH
#define SEQPOINT_SIM_DRAM_MODEL_HH

#include <algorithm>

#include "sim/gpu_config.hh"
#include "sim/kernel.hh"

namespace seqpoint {
namespace sim {

/** DRAM service estimate for one kernel. */
struct DramService {
    double readTimeSec = 0.0;   ///< Time to service read traffic.
    double writeTimeSec = 0.0;  ///< Time to drain write traffic.
    double writeStallSec = 0.0; ///< Non-overlappable write stall time.
};

/**
 * Effective DRAM bandwidth for a kernel class.
 *
 * Streaming classes get close to the configured efficiency; gather
 * classes (embedding) lose row-buffer locality and achieve less.
 *
 * @param klass Kernel class issuing the traffic.
 * @param cfg Device configuration.
 * @return Effective bandwidth in bytes/s.
 */
inline double
effectiveDramBandwidth(KernelClass klass, const GpuConfig &cfg)
{
    double eff = cfg.dramEfficiency;
    switch (klass) {
      case KernelClass::Embedding:
        // Gather/scatter: poor row-buffer locality.
        eff *= 0.45;
        break;
      case KernelClass::Transpose:
        // One strided side.
        eff *= 0.70;
        break;
      case KernelClass::Scalar:
        // Latency-bound single accesses.
        eff *= 0.20;
        break;
      default:
        break;
    }
    return cfg.dramBandwidth * eff;
}

/**
 * Service read and write DRAM traffic for a kernel.
 *
 * Writes drain through a buffered path at `writeDrainFraction` of the
 * device bandwidth; drain time beyond the kernel's read/compute time
 * shows up as write stalls (the "Mem write stalls" counter of Fig 4).
 *
 * @param klass Kernel class issuing the traffic.
 * @param read_bytes DRAM read traffic in bytes.
 * @param write_bytes DRAM write traffic in bytes.
 * @param overlap_sec Time the kernel spends busy anyway (reads or
 *                    compute) during which write drain is free.
 * @param cfg Device configuration.
 */
inline DramService
serviceDram(KernelClass klass, double read_bytes, double write_bytes,
            double overlap_sec, const GpuConfig &cfg)
{
    DramService svc;
    double bw = effectiveDramBandwidth(klass, cfg);
    svc.readTimeSec = read_bytes / bw;

    double drain_bw = cfg.dramBandwidth * cfg.writeDrainFraction;
    svc.writeTimeSec = write_bytes / drain_bw;

    // Drain overlaps with whatever else the kernel is doing; only the
    // excess stalls the pipeline.
    double cover = std::max(overlap_sec, svc.readTimeSec);
    svc.writeStallSec = std::max(0.0, svc.writeTimeSec - cover);
    return svc;
}

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_DRAM_MODEL_HH
