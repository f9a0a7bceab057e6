/**
 * @file
 * Gpu facade implementation.
 */

#include "sim/gpu.hh"

namespace seqpoint {
namespace sim {

Gpu::Gpu(GpuConfig config) : cfg(std::move(config))
{
}

KernelTiming
Gpu::launchTiming(const KernelDesc &desc) const
{
    KernelTiming kt = cache.lookup(desc, cfg);
    if (desc.repeat != 1) {
        double r = static_cast<double>(desc.repeat);
        kt.timeSec *= r;
        kt.counters *= r;
    }
    return kt;
}

namespace {

KernelRecord
makeRecord(const KernelDesc &desc, const KernelTiming &kt)
{
    return KernelRecord{desc.name(), desc.klass, desc.repeat, kt.timeSec,
                        kt.memoryBound, kt.counters};
}

} // anonymous namespace

KernelRecord
Gpu::execute(const KernelDesc &desc) const
{
    return makeRecord(desc, launchTiming(desc));
}

ExecutionResult
Gpu::executeAll(const std::vector<KernelDesc> &kernels,
                bool keep_records) const
{
    ExecutionResult result;
    if (keep_records)
        result.records.reserve(kernels.size());
    for (const KernelDesc &desc : kernels) {
        KernelTiming kt = launchTiming(desc);
        result.totalSec += kt.timeSec;
        result.counters += kt.counters;
        result.launches += desc.repeat;
        result.classSec[static_cast<unsigned>(desc.klass)] += kt.timeSec;
        if (keep_records)
            result.records.push_back(makeRecord(desc, kt));
    }
    return result;
}

} // namespace sim
} // namespace seqpoint
