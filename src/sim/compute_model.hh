/**
 * @file
 * Compute-side timing: VALU instruction counts and execution time for
 * a kernel's arithmetic given the device's lanes, clock and the
 * kernel's achievable occupancy.
 */

#ifndef SEQPOINT_SIM_COMPUTE_MODEL_HH
#define SEQPOINT_SIM_COMPUTE_MODEL_HH

#include <algorithm>

#include "sim/gpu_config.hh"
#include "sim/kernel.hh"
#include "sim/occupancy.hh"

namespace seqpoint {
namespace sim {

/** Compute-side estimate for one kernel. */
struct ComputeEstimate {
    double timeSec = 0.0;     ///< Pure-compute execution time.
    double valuInsts = 0.0;   ///< Vector ALU instructions issued.
    double saluInsts = 0.0;   ///< Scalar ALU instructions issued.
    double efficiency = 0.0;  ///< Achieved fraction of peak FLOPs.
};

/**
 * Peak-fraction a well-tuned kernel of this class reaches on dense
 * arithmetic, before occupancy effects.
 *
 * @param klass Kernel class.
 * @return Efficiency in (0, 1].
 */
inline double
classComputeEfficiency(KernelClass klass)
{
    switch (klass) {
      case KernelClass::Gemm: return 0.72;
      case KernelClass::Elementwise: return 0.30;
      case KernelClass::Reduction: return 0.25;
      case KernelClass::Softmax: return 0.22;
      case KernelClass::BatchNorm: return 0.25;
      case KernelClass::Embedding: return 0.10;
      case KernelClass::Transpose: return 0.15;
      case KernelClass::Memcpy: return 0.50;
      case KernelClass::Scalar: return 0.02;
    }
    return 0.2;
}

namespace detail {

/** Instruction overhead multiplier (address math, predication). */
inline double
classInstOverhead(KernelClass klass)
{
    switch (klass) {
      case KernelClass::Gemm: return 1.15;
      case KernelClass::Elementwise: return 1.6;
      case KernelClass::Reduction: return 1.8;
      case KernelClass::Softmax: return 1.8;
      case KernelClass::BatchNorm: return 1.7;
      case KernelClass::Embedding: return 2.5;
      case KernelClass::Transpose: return 2.0;
      case KernelClass::Memcpy: return 1.2;
      case KernelClass::Scalar: return 4.0;
    }
    return 1.5;
}

} // namespace detail

/**
 * Estimate compute time and instruction counts.
 *
 * VALU instructions: one FMA per lane per instruction; non-FMA classes
 * issue roughly one op per FLOP. Overhead instructions (address math,
 * control) are folded in with a per-class multiplier.
 *
 * @param desc Kernel descriptor.
 * @param occ Occupancy previously computed for this launch.
 * @param cfg Device configuration.
 */
inline ComputeEstimate
estimateCompute(const KernelDesc &desc, const Occupancy &occ,
                const GpuConfig &cfg)
{
    ComputeEstimate est;

    double lanes = static_cast<double>(cfg.totalLanes());
    double overhead = detail::classInstOverhead(desc.klass);

    // GEMMs retire FMAs (2 FLOPs per lane-op); other classes mostly
    // single-op instructions.
    double flops_per_laneop = (desc.klass == KernelClass::Gemm) ? 2.0 : 1.0;
    double lane_ops = desc.flops / flops_per_laneop;

    // A VALU instruction drives a full wavefront of lanes.
    est.valuInsts = lane_ops * overhead /
        static_cast<double>(cfg.waveSize);
    // Memcpy-style kernels still issue load/store instructions.
    if (desc.flops == 0.0 && desc.totalBytes() > 0.0) {
        est.valuInsts = desc.totalBytes() / 4.0 /
            static_cast<double>(cfg.waveSize);
    }
    est.saluInsts = est.valuInsts * 0.25;

    est.efficiency = classComputeEfficiency(desc.klass) *
        desc.effScale * occ.utilization;

    double usable_flops = 2.0 * lanes * cfg.gclkHz * est.efficiency;
    double effective_flops = std::max(desc.flops,
        desc.totalBytes() * 0.25); // instruction floor for copy kernels
    est.timeSec = effective_flops / usable_flops;
    return est;
}

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_COMPUTE_MODEL_HH
