/**
 * @file
 * Kernel-timing cache implementation.
 */

#include "sim/timing_cache.hh"

#include <cstring>
#include <functional>

namespace seqpoint {
namespace sim {

KernelSignature
kernelSignature(const KernelDesc &desc)
{
    KernelSignature sig;
    sig.klass = desc.klass;
    sig.flops = desc.flops;
    sig.bytesIn = desc.bytesIn;
    sig.bytesOut = desc.bytesOut;
    sig.workingSetL1 = desc.workingSetL1;
    sig.workingSetL2 = desc.workingSetL2;
    sig.workItems = desc.workItems;
    sig.gemmM = desc.gemmM;
    sig.gemmN = desc.gemmN;
    sig.gemmK = desc.gemmK;
    sig.effScale = desc.effScale;
    sig.reuseL1 = desc.reuseL1;
    sig.reuseL2 = desc.reuseL2;
    return sig;
}

namespace {

/** Boost-style hash combine. */
inline void
hashCombine(std::size_t &seed, std::size_t v)
{
    seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/**
 * Hash a double by bit pattern. -0.0 is normalised to +0.0 first:
 * the signature's defaulted operator== treats them as equal, so they
 * must hash equally too.
 */
inline std::size_t
hashDouble(double d)
{
    if (d == 0.0)
        d = 0.0;
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return std::hash<uint64_t>{}(bits);
}

} // anonymous namespace

std::size_t
KernelSignatureHash::operator()(const KernelSignature &sig) const
{
    std::size_t seed =
        std::hash<unsigned>{}(static_cast<unsigned>(sig.klass));
    hashCombine(seed, hashDouble(sig.flops));
    hashCombine(seed, hashDouble(sig.bytesIn));
    hashCombine(seed, hashDouble(sig.bytesOut));
    hashCombine(seed, hashDouble(sig.workingSetL1));
    hashCombine(seed, hashDouble(sig.workingSetL2));
    hashCombine(seed, hashDouble(sig.workItems));
    hashCombine(seed, std::hash<int64_t>{}(sig.gemmM));
    hashCombine(seed, std::hash<int64_t>{}(sig.gemmN));
    hashCombine(seed, std::hash<int64_t>{}(sig.gemmK));
    hashCombine(seed, hashDouble(sig.effScale));
    hashCombine(seed, hashDouble(sig.reuseL1));
    hashCombine(seed, hashDouble(sig.reuseL2));
    return seed;
}

KernelTiming
KernelTimingCache::lookup(const KernelDesc &desc, const GpuConfig &cfg)
{
    KernelSignature sig = kernelSignature(desc);

    {
        MutexLock lock(mu);
        auto it = entries.find(sig);
        if (it != entries.end()) {
            ++stats_.hits;
            return it->second;
        }
    }

    // Run the timing model outside the lock: concurrent misses on the
    // same signature compute the same pure-function result, so the
    // duplicated work is harmless and bounded by the thread count.
    KernelTiming kt = timeKernel(desc, cfg);

    MutexLock lock(mu);
    auto [it, inserted] = entries.emplace(sig, kt);
    (void)inserted;
    ++stats_.misses;
    return it->second;
}

TimingCacheStats
KernelTimingCache::stats() const
{
    MutexLock lock(mu);
    return stats_;
}

std::size_t
KernelTimingCache::size() const
{
    MutexLock lock(mu);
    return entries.size();
}

void
KernelTimingCache::clear()
{
    MutexLock lock(mu);
    entries.clear();
    stats_ = TimingCacheStats{};
}

} // namespace sim
} // namespace seqpoint
