/**
 * @file
 * Parallel experiment scheduler implementation.
 */

#include "harness/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <thread>

namespace seqpoint {
namespace harness {

ExperimentScheduler::ExperimentScheduler(unsigned threads)
    : numThreads(threads ? threads
                         : std::max(1u,
                                    std::thread::hardware_concurrency()))
{
}

double
ExperimentScheduler::wallNow()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

void
ExperimentScheduler::forEachCell(
    std::size_t num_workloads, std::size_t num_configs,
    const std::function<void(std::size_t, std::size_t, std::size_t)> &fn)
    const
{
    std::size_t cells = num_workloads * num_configs;
    if (cells == 0)
        return;

    auto body = [&](std::size_t cell) {
        fn(cell, cell / num_configs, cell % num_configs);
    };

    if (numThreads <= 1 || cells == 1) {
        for (std::size_t cell = 0; cell < cells; ++cell)
            body(cell);
        return;
    }

    // The process-wide pool, capped at this sweep's width: repeated
    // sweeps (the service's steady state) pay no thread setup and
    // teardown per sweep, which used to dominate small cell counts.
    ThreadPool::shared().parallelFor(cells, body, numThreads);
}

ExperimentScheduler::SnapshotProvider
registrySnapshots(SnapshotRegistry &registry,
                  const std::vector<WorkloadFactory> &workloads)
{
    return [&registry, &workloads](std::size_t w,
                                   const sim::GpuConfig &cfg,
                                   Experiment &exp) {
        return registry.acquire(exp.workload(), workloads[w], cfg, 1,
                                exp.options());
    };
}

} // namespace harness
} // namespace seqpoint
