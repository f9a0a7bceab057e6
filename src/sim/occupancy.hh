/**
 * @file
 * Wavefront occupancy math: how much of the machine a kernel's
 * parallelism can actually keep busy. Small launches (short sequence
 * lengths, small GEMM tiles) cannot fill 64 CUs -- the effect behind
 * the CU-count sensitivity curves in Figs 13 and 14.
 */

#ifndef SEQPOINT_SIM_OCCUPANCY_HH
#define SEQPOINT_SIM_OCCUPANCY_HH

#include <algorithm>
#include <cmath>

#include "sim/gpu_config.hh"
#include "sim/kernel.hh"

namespace seqpoint {
namespace sim {

/** Occupancy assessment for one kernel launch on one device. */
struct Occupancy {
    double waves = 0.0;        ///< Wavefronts in the launch grid.
    double activeCus = 0.0;    ///< CUs with at least one wave.
    double utilization = 0.0;  ///< Fraction of peak lanes usable [0,1].
};

/** Waves per SIMD needed to hide ALU + memory latency. */
constexpr double latencyHideWaves = 8.0;

/**
 * Compute the occupancy of a launch.
 *
 * Utilization combines two effects: (a) fewer waves than SIMDs leaves
 * lanes idle, and (b) too few waves per SIMD cannot hide pipeline
 * latency, modelled as a saturating ramp up to `latencyHideWaves`
 * waves per SIMD.
 *
 * @param desc Kernel descriptor (workItems drives the wave count).
 * @param cfg Device configuration.
 */
inline Occupancy
computeOccupancy(const KernelDesc &desc, const GpuConfig &cfg)
{
    Occupancy occ;
    double waves = std::ceil(std::max(desc.workItems, 1.0) /
        static_cast<double>(cfg.waveSize));
    occ.waves = waves;

    double total_simds = static_cast<double>(cfg.numCus) *
        static_cast<double>(cfg.simdsPerCu);

    // Waves spread round-robin across CUs.
    occ.activeCus = std::min<double>(cfg.numCus, waves);

    // Lane utilization: each SIMD needs `latencyHideWaves` resident
    // waves to stream back-to-back VALU issues.
    double waves_per_simd = waves / total_simds;
    double ramp = std::min(1.0, waves_per_simd / latencyHideWaves);

    // Sub-wave launches still occupy a full wave slot.
    double lane_fill = std::min(1.0,
        desc.workItems / (waves * static_cast<double>(cfg.waveSize)));

    occ.utilization = std::max(1e-3, ramp * lane_fill);
    return occ;
}

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_OCCUPANCY_HH
