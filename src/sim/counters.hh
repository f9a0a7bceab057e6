/**
 * @file
 * Performance counters: the statistics the paper's profiling setup
 * (Radeon Compute Profiler) collects per kernel -- VALU instructions,
 * load/store traffic, cache hits, DRAM traffic and write stalls.
 */

#ifndef SEQPOINT_SIM_COUNTERS_HH
#define SEQPOINT_SIM_COUNTERS_HH

#include <cstdint>
#include <string>

#include "common/bytestream.hh"

namespace seqpoint {
namespace sim {

/**
 * Additive performance-counter bundle.
 *
 * Counter values are doubles: the simulator computes expected values
 * analytically, not by instrumenting individual instructions.
 */
struct PerfCounters {
    double kernelsLaunched = 0; ///< Kernel launches.
    double valuInsts = 0;       ///< Vector ALU instructions.
    double saluInsts = 0;       ///< Scalar ALU instructions.
    double bytesLoaded = 0;     ///< Bytes requested by loads.
    double bytesStored = 0;     ///< Bytes written by stores.
    double l1HitBytes = 0;      ///< Load bytes served from L1.
    double l2HitBytes = 0;      ///< Bytes served from L2.
    double dramBytes = 0;       ///< Bytes served from DRAM.
    double writeStallSec = 0;   ///< Time stalled on write drains.
    double busySec = 0;         ///< Kernel busy time (excl. launch).
    double launchSec = 0;       ///< Launch/dispatch overhead time.

    /**
     * Bit-exact field-wise equality (bench/test identity guards; no
     * tolerance -- the engines under comparison must agree exactly).
     */
    bool operator==(const PerfCounters &other) const = default;

    /**
     * Accumulate another bundle into this one. Inline: the profiler's
     * program folds and Gpu::executeAll() call it once per launch step
     * (sim::accountLaunch()).
     */
    PerfCounters &
    operator+=(const PerfCounters &other)
    {
        kernelsLaunched += other.kernelsLaunched;
        valuInsts += other.valuInsts;
        saluInsts += other.saluInsts;
        bytesLoaded += other.bytesLoaded;
        bytesStored += other.bytesStored;
        l1HitBytes += other.l1HitBytes;
        l2HitBytes += other.l2HitBytes;
        dramBytes += other.dramBytes;
        writeStallSec += other.writeStallSec;
        busySec += other.busySec;
        launchSec += other.launchSec;
        return *this;
    }

    /** @return Sum of two bundles. */
    friend PerfCounters operator+(PerfCounters a, const PerfCounters &b)
    {
        a += b;
        return a;
    }

    /** Scale all counters (weighted projections, repeated launches). */
    PerfCounters &
    operator*=(double factor)
    {
        kernelsLaunched *= factor;
        valuInsts *= factor;
        saluInsts *= factor;
        bytesLoaded *= factor;
        bytesStored *= factor;
        l1HitBytes *= factor;
        l2HitBytes *= factor;
        dramBytes *= factor;
        writeStallSec *= factor;
        busySec *= factor;
        launchSec *= factor;
        return *this;
    }

    /** @return Total wall time attributed to the kernels. */
    double totalSec() const { return busySec + launchSec; }

    /** @return Human-readable one-line summary. */
    std::string summary() const;
};

/**
 * Serialize a counter bundle (snapshot store). Every field is written
 * as its IEEE-754 bit pattern, so decode is bit-identical.
 */
void encodeCounters(ByteWriter &w, const PerfCounters &c);

/** Decode a counter bundle written by encodeCounters(). */
PerfCounters decodeCounters(ByteReader &r);

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_COUNTERS_HH
