/**
 * @file
 * GPU hardware configuration. Defaults model an AMD Radeon Vega
 * Frontier Edition class device (64 CUs, 16 GB HBM2) which is the
 * testbed in the SeqPoint paper; Table II's five variants are provided
 * as named constructors.
 */

#ifndef SEQPOINT_SIM_GPU_CONFIG_HH
#define SEQPOINT_SIM_GPU_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "common/units.hh"

namespace seqpoint {
namespace sim {

/**
 * Static description of the simulated GPU.
 *
 * All rates are in SI units (Hz, bytes/s); capacities in bytes.
 */
struct GpuConfig {
    /** Human-readable configuration name ("config#1" .. "config#5"). */
    std::string name = "config#1";

    /** Core (shader) clock in Hz. */
    double gclkHz = ghz(1.6);

    /** Number of compute units. */
    unsigned numCus = 64;

    /** SIMD units per CU. */
    unsigned simdsPerCu = 4;

    /** Vector lanes per SIMD. */
    unsigned lanesPerSimd = 16;

    /** Max in-flight wavefronts per CU (occupancy ceiling). */
    unsigned maxWavesPerCu = 40;

    /** Threads per wavefront. */
    unsigned waveSize = 64;

    /** Per-CU L1 vector cache capacity (0 disables the L1). */
    uint64_t l1SizeBytes = kib(16);

    /** L1 associativity. */
    unsigned l1Assoc = 4;

    /** Shared L2 capacity (0 disables the L2). */
    uint64_t l2SizeBytes = mib(4);

    /** L2 associativity. */
    unsigned l2Assoc = 16;

    /** Cache line size for both levels. */
    unsigned lineBytes = 64;

    /** Per-CU L1 bandwidth in bytes per core cycle. */
    double l1BytesPerCycle = 64.0;

    /** Chip-wide L2 bandwidth in bytes per core cycle. */
    double l2BytesPerCycle = 1024.0;

    /** Peak DRAM (HBM2) bandwidth in bytes/s. */
    double dramBandwidth = gbps(483.0);

    /** Achievable fraction of peak DRAM bandwidth for streams. */
    double dramEfficiency = 0.82;

    /** Fixed kernel launch overhead in seconds (driver + dispatch). */
    double launchOverheadSec = usec(4.0);

    /** Write buffer drain bandwidth as a fraction of DRAM bandwidth. */
    double writeDrainFraction = 0.45;

    /** @return Peak FP32 throughput in FLOP/s (FMA counts as two). */
    double peakFlops() const;

    /** @return Vector lanes across the whole chip. */
    unsigned totalLanes() const;

    /** @return Aggregate L1 bandwidth in bytes/s across all CUs. */
    double l1Bandwidth() const;

    /** @return L2 bandwidth in bytes/s. */
    double l2Bandwidth() const;

    /** @return True when the L1 caches are present. */
    bool hasL1() const { return l1SizeBytes > 0; }

    /** @return True when the L2 cache is present. */
    bool hasL2() const { return l2SizeBytes > 0; }

    /**
     * Field-wise equality over every parameter. The name alone is
     * NOT sufficient identity: per-configuration state keyed by it
     * silently aliases differently-parameterised configs.
     */
    bool operator==(const GpuConfig &other) const = default;

    /** Baseline: 1.6 GHz, 64 CUs, 16 KB L1, 4 MB L2 (Table II #1). */
    static GpuConfig config1();

    /** Reduced clock: 852 MHz (Table II #2). */
    static GpuConfig config2();

    /** Reduced CU count: 16 CUs (Table II #3). */
    static GpuConfig config3();

    /** L1 disabled (Table II #4). */
    static GpuConfig config4();

    /** L2 disabled (Table II #5). */
    static GpuConfig config5();

    /** All five Table II configurations, in order. */
    static std::vector<GpuConfig> table2();
};

/**
 * Serialize every configuration parameter, the name included, with
 * each double as its IEEE bit pattern. The byte image is the
 * configuration's one identity: the snapshot key (as hex) and the
 * query service's warm key are built from it, and decodeGpuConfig()
 * gives back a configuration with the same image. Unlike
 * GpuConfig::operator==, it tells -0.0 from 0.0 and one NaN payload
 * from another, and a NaN field matches itself.
 */
void encodeGpuConfig(ByteWriter &w, const GpuConfig &cfg);

/** Decode a configuration written by encodeGpuConfig(). */
GpuConfig decodeGpuConfig(ByteReader &r);

/**
 * Whether two configurations have the same encodeGpuConfig() byte
 * image, field by field and without encoding (Experiment::state runs
 * it on every per-SL lookup): the equality an Experiment's
 * per-configuration states use. Unlike GpuConfig::operator==, a NaN
 * field matches itself (so a NaN config resolves to one state) and
 * -0.0 stays apart from 0.0.
 */
bool sameEncodedConfig(const GpuConfig &a, const GpuConfig &b);

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_GPU_CONFIG_HH
