/**
 * @file
 * The Gpu facade: executes kernel sequences on a configuration and
 * returns per-kernel records and aggregated counters. This is the
 * simulated stand-in for the paper's Vega FE + Radeon Compute
 * Profiler measurement stack.
 */

#ifndef SEQPOINT_SIM_GPU_HH
#define SEQPOINT_SIM_GPU_HH

#include <array>
#include <string>
#include <vector>

#include "sim/counters.hh"
#include "sim/gpu_config.hh"
#include "sim/kernel.hh"
#include "sim/timing_cache.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace sim {

/** One executed kernel: descriptor identity plus measured behaviour. */
struct KernelRecord {
    std::string name;          ///< Kernel name (with variant suffix).
    KernelClass klass;         ///< Operation class.
    uint64_t launches = 1;     ///< Back-to-back launches folded in.
    double timeSec = 0.0;      ///< Wall time of all launches.
    bool memoryBound = false;  ///< Roofline side it landed on.
    PerfCounters counters;     ///< Counter bundle for all launches.
};

/** Aggregate result of executing a kernel sequence. */
struct ExecutionResult {
    double totalSec = 0.0;           ///< Sum of kernel wall times.
    PerfCounters counters;           ///< Summed counters.
    uint64_t launches = 0;           ///< Kernel launches executed.

    /** Wall time attributed to each kernel class. */
    std::array<double, numKernelClasses> classSec{};

    std::vector<KernelRecord> records; ///< Per-kernel records
                                       ///< (empty unless detailed).
};

/**
 * Fold `repeat` back-to-back launches of one kernel into an aggregate:
 * scale the per-launch timing to all of them, then add the time,
 * counters, launch count and class time. Gpu::executeAll() and the
 * profiler's op-id fold both account through this one function, so
 * their summation order cannot drift apart.
 *
 * @param res Aggregate to add to.
 * @param kt Per-launch timing of the kernel; scaled in place to all
 *           `repeat` launches.
 * @param klass The kernel's operation class.
 * @param repeat Back-to-back launches.
 */
inline void
accountLaunch(ExecutionResult &res, KernelTiming &kt, KernelClass klass,
              uint64_t repeat)
{
    if (repeat != 1) {
        double r = static_cast<double>(repeat);
        kt.timeSec *= r;
        kt.counters *= r;
    }
    res.totalSec += kt.timeSec;
    res.counters += kt.counters;
    res.launches += repeat;
    res.classSec[static_cast<unsigned>(klass)] += kt.timeSec;
}

/**
 * A simulated GPU bound to one hardware configuration.
 *
 * Kernels execute back-to-back in launch order (the MI frameworks the
 * paper profiles submit to a single in-order stream).
 *
 * execute() and executeAll() time each unique kernel signature once
 * per device and replay it from the kernel-timing cache thereafter
 * (the paper's Fig 5 unique-kernel observation applied to the
 * simulator). A replayed timing is bit-identical to timing the kernel
 * afresh because the timing model is a pure function of (signature,
 * configuration).
 *
 * The profiler does not go through that cache: each interned op of a
 * network's lowered programs is timed once per (configuration, tuner
 * mode) per process straight from the timing model (timeKernel())
 * into the network's shared nn::ResolvedOps table, indexed by op id,
 * and profilers fold programs out of it with accountLaunch() -- the
 * same arithmetic executeAll() uses, without a lookup per launch or
 * per op.
 */
class Gpu
{
  public:
    /**
     * Construct a device.
     *
     * @param cfg Hardware configuration (copied).
     */
    explicit Gpu(GpuConfig cfg);

    /** @return The device configuration. */
    const GpuConfig &config() const { return cfg; }

    /** @return Kernel-timing-cache hit/miss statistics. */
    TimingCacheStats timingCacheStats() const { return cache.stats(); }

    /** @return Distinct kernel signatures timed so far. */
    size_t uniqueKernelsTimed() const { return cache.size(); }

    /**
     * Execute one kernel.
     *
     * @param desc Kernel descriptor.
     * @return Record with timing and counters.
     */
    KernelRecord execute(const KernelDesc &desc) const;

    /**
     * Execute a sequence of kernels.
     *
     * Every launch is folded into the aggregates in launch order;
     * with keep_records a KernelRecord carrying the same scaled values
     * (and the kernel's name()) is appended too, so the aggregates are
     * bit-identical either way.
     *
     * @param kernels Launch-ordered kernel descriptors.
     * @param keep_records Retain per-kernel records (memory-heavy;
     *                     used when profiling single iterations).
     * @return Aggregated execution result.
     */
    ExecutionResult executeAll(const std::vector<KernelDesc> &kernels,
                               bool keep_records = false) const;

  private:
    GpuConfig cfg;
    mutable KernelTimingCache cache;

    /**
     * Per-launch timing of a kernel through the timing cache; the
     * descriptor's repeat count is ignored.
     *
     * @param desc Kernel descriptor.
     */
    KernelTiming timing(const KernelDesc &desc) const
    {
        return cache.lookup(desc, cfg);
    }
};

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_GPU_HH
