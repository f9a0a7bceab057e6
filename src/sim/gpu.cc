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
    ExecutionResult one;
    KernelTiming kt = timing(desc);
    accountLaunch(one, kt, desc.klass, desc.repeat);
    return makeRecord(desc, kt);
}

ExecutionResult
Gpu::executeAll(const std::vector<KernelDesc> &kernels,
                bool keep_records) const
{
    ExecutionResult result;
    if (keep_records)
        result.records.reserve(kernels.size());
    for (const KernelDesc &desc : kernels) {
        KernelTiming kt = timing(desc);
        accountLaunch(result, kt, desc.klass, desc.repeat);
        if (keep_records)
            result.records.push_back(makeRecord(desc, kt));
    }
    return result;
}

} // namespace sim
} // namespace seqpoint
