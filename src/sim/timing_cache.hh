/**
 * @file
 * Kernel-timing cache: the paper's unique-kernel observation (Fig 5)
 * applied to the simulator itself. A training run launches millions
 * of kernels but only a small set of *unique* ones, so each unique
 * kernel needs to be timed once per device configuration. The cache
 * keys on a canonical kernel signature -- operation class, GEMM
 * dimensions and every descriptor field the timing model reads --
 * and replays the stored KernelTiming for every later launch with
 * the same signature.
 *
 * The cache lives and dies with its device: it is never persisted or
 * copied between devices. Re-timing a kernel is about as cheap as
 * inserting a stored timing, and timeKernel() is a pure function of
 * (signature, configuration), so a process that needs a timing
 * another process already computed simply computes it again.
 */

#ifndef SEQPOINT_SIM_TIMING_CACHE_HH
#define SEQPOINT_SIM_TIMING_CACHE_HH

#include <cstdint>
#include <unordered_map>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "sim/kernel.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace sim {

/**
 * Canonical kernel signature: exactly the KernelDesc fields the
 * timing model depends on. The mangled name and the repeat count are
 * deliberately excluded -- two launches that agree on this key time
 * identically per launch, whatever they are called and however many
 * times they run back-to-back.
 */
struct KernelSignature {
    KernelClass klass = KernelClass::Elementwise; ///< Operation class.
    double flops = 0.0;        ///< Total FLOPs.
    double bytesIn = 0.0;      ///< Load request volume.
    double bytesOut = 0.0;     ///< Store request volume.
    double workingSetL1 = 0.0; ///< Per-CU hot set.
    double workingSetL2 = 0.0; ///< Chip-wide hot set.
    double workItems = 0.0;    ///< Launch-grid size.
    int64_t gemmM = 0;         ///< GEMM M (0 for non-GEMM).
    int64_t gemmN = 0;         ///< GEMM N.
    int64_t gemmK = 0;         ///< GEMM K.
    double effScale = 1.0;     ///< Variant efficiency scale.
    double reuseL1 = 0.0;      ///< Intrinsic L1 reuse.
    double reuseL2 = 0.0;      ///< Intrinsic L2 reuse.

    /** Field-wise equality. */
    bool operator==(const KernelSignature &other) const = default;
};

/** @return The canonical signature of a kernel descriptor. */
KernelSignature kernelSignature(const KernelDesc &desc);

/** Hash functor over the signature's bit patterns. */
struct KernelSignatureHash {
    /** @return Combined hash of all signature fields. */
    std::size_t operator()(const KernelSignature &sig) const;
};

/** Hit/miss accounting for one cache instance. */
struct TimingCacheStats {
    uint64_t hits = 0;   ///< Lookups served from the cache.
    uint64_t misses = 0; ///< Lookups that ran the timing model.

    /** @return Total lookups. */
    uint64_t lookups() const { return hits + misses; }

    /** @return hits / lookups, 0 when empty. */
    double hitRate() const
    {
        uint64_t n = lookups();
        return n ? static_cast<double>(hits) / static_cast<double>(n)
                 : 0.0;
    }
};

/**
 * Signature -> KernelTiming memo for one device configuration.
 *
 * Thread-safe: lookups from concurrent profiling tasks serialise on an
 * internal mutex. Because timeKernel() is a pure function of
 * (signature, config), cached results are bit-identical to fresh
 * computation no matter which thread populated the entry.
 */
class KernelTimingCache
{
  public:
    /**
     * Time a kernel through the cache.
     *
     * @param desc Kernel descriptor.
     * @param cfg Device configuration (must be the same object/value
     *            for every call on this cache instance).
     * @return Per-launch timing, computed at most once per signature.
     */
    KernelTiming lookup(const KernelDesc &desc, const GpuConfig &cfg);

    /** @return Hit/miss counts so far. */
    TimingCacheStats stats() const;

    /** @return Distinct signatures cached. */
    std::size_t size() const;

    /** Drop all entries and reset the statistics. */
    void clear();

  private:
    mutable Mutex mu;
    std::unordered_map<KernelSignature, KernelTiming,
                       KernelSignatureHash> entries SEQ_GUARDED_BY(mu);
    TimingCacheStats stats_ SEQ_GUARDED_BY(mu);
};

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_TIMING_CACHE_HH
