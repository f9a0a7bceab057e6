/**
 * @file
 * Chaos test: a registry-backed epoch sweep survives a deterministic
 * storm of injected faults -- snapshot reads failing, store files
 * corrupted on disk, persists dropped, cells blowing up mid-flight --
 * and still converges to results bit-identical to a clean serial
 * sweep. This is the whole fault-containment story exercised end to
 * end: ThreadPool exception capture, tryLoadSnapshot classification,
 * registry quarantine + cold rebuild, and per-cell retries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "harness/scheduler.hh"
#include "harness/snapshot_registry.hh"

namespace seqpoint {
namespace harness {
namespace {

namespace fs = std::filesystem;

std::vector<WorkloadFactory>
chaosWorkloads()
{
    return {[] { return makeGnmtWorkload(); },
            [] { return makeDs2Workload(); }};
}

std::vector<sim::GpuConfig>
chaosConfigs()
{
    return {sim::GpuConfig::config1(), sim::GpuConfig::config2()};
}

void
expectCellsIdentical(const std::vector<EpochCellResult> &a,
                     const std::vector<EpochCellResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload) << "cell " << i;
        EXPECT_EQ(a[i].config, b[i].config) << "cell " << i;
        EXPECT_EQ(a[i].iterations, b[i].iterations) << "cell " << i;
        EXPECT_EQ(a[i].trainSec, b[i].trainSec) << "cell " << i;
        EXPECT_EQ(a[i].evalSec, b[i].evalSec) << "cell " << i;
        EXPECT_EQ(a[i].throughput, b[i].throughput) << "cell " << i;
        EXPECT_EQ(a[i].counters.busySec, b[i].counters.busySec)
            << "cell " << i;
        EXPECT_EQ(a[i].counters.dramBytes, b[i].counters.dramBytes)
            << "cell " << i;
    }
}

/** Flip one payload byte of a store file (checksum now fails). */
void
corruptStoreFile(const std::string &path)
{
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << path;
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 32u);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(Chaos, FaultStormSweepConvergesToCleanResults)
{
    FaultInjector::instance().reset();
    setQuietLogging(true);

    auto workloads = chaosWorkloads();
    auto configs = chaosConfigs();

    // The clean reference: serial, registry-free, no faults.
    ExperimentScheduler serial(1);
    auto clean = serial.epochSweep(workloads, configs);
    ASSERT_EQ(clean.size(), 4u);

    // Warm a store so the chaos sweep has files to lose.
    std::string dir =
        (fs::path(testing::TempDir()) / "chaos_store").string();
    fs::remove_all(dir);
    {
        SnapshotRegistry warm(dir);
        ExperimentScheduler warmer(2);
        auto warmed = warmer.epochSweep(workloads, configs, warm);
        expectCellsIdentical(warmed, clean);
    }

    // Corrupt every other store file on disk.
    size_t corrupted = 0;
    std::vector<std::string> store_files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".bin")
            store_files.push_back(entry.path().string());
    }
    std::sort(store_files.begin(), store_files.end());
    for (size_t i = 0; i < store_files.size(); i += 2) {
        corruptStoreFile(store_files[i]);
        ++corrupted;
    }
    ASSERT_GT(corrupted, 0u);

    // The storm, all deterministic: seeded read faults (capped so
    // the degrade path always terminates), seeded cell faults
    // (capped below the retry budget), and one dropped persist.
    auto &inj = FaultInjector::instance();
    inj.armSeeded("snapshot_io.read", "", /*seed=*/0xc4a05, /*rate=*/
                  0.5, /*max_fires=*/2, ErrorCode::IoError);
    inj.armSeeded("scheduler.cell", "", /*seed=*/0x5eed, /*rate=*/0.5,
                  /*max_fires=*/2, ErrorCode::Timeout);
    inj.armAt("registry.save", "", {1});

    SnapshotRegistry reg(dir);
    ExperimentScheduler chaos(2);
    chaos.setCellRetries(3); // outlasts the capped cell faults
    chaos.setRetryBackoff(0.0);
    std::vector<CellTiming> timings;
    auto stormy = chaos.epochSweep(workloads, configs, reg, &timings);

    // Every cell survived (retries + degradation absorbed the storm)
    // and every result is bit-identical to the clean serial run.
    for (size_t i = 0; i < stormy.size(); ++i)
        EXPECT_FALSE(stormy[i].failed)
            << "cell " << i << ": " << stormy[i].error;
    expectCellsIdentical(stormy, clean);

    // The corrupted files were quarantined (not silently adopted,
    // not fatal) and rebuilt under their original names.
    EXPECT_GE(reg.stats().quarantines, corrupted);
    size_t corpses = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        corpses += entry.path().extension() == ".corrupt";
    EXPECT_GE(corpses, corrupted);

    // Replaying the storm with the same seeds fires identically --
    // the chaos schedule is a reproducible artifact, not luck.
    uint64_t read_fired = inj.fired("snapshot_io.read");
    uint64_t cell_fired = inj.fired("scheduler.cell");
    EXPECT_GT(cell_fired, 0u);
    EXPECT_LE(cell_fired, 2u);
    EXPECT_LE(read_fired, 2u);

    // Every injected cell fault was absorbed by a retry: exactly the
    // faulted cells took more than one attempt.
    ASSERT_EQ(timings.size(), stormy.size());
    uint64_t retried = 0;
    for (const CellTiming &t : timings)
        retried += t.outcome.attempts > 1;
    EXPECT_GE(retried, 1u);
    EXPECT_EQ(retried, cell_fired);

    FaultInjector::instance().reset();
    setQuietLogging(false);
}

TEST(Chaos, StrictModeDiesOnTheSameCorruption)
{
    // The escape hatch: the same on-disk corruption that the default
    // mode degrades around must stay loudly fatal under strict mode.
    FaultInjector::instance().reset();
    setQuietLogging(true);
    std::string dir =
        (fs::path(testing::TempDir()) / "chaos_strict").string();
    fs::remove_all(dir);

    auto make = [] { return makeDs2Workload(); };
    auto cfg = sim::GpuConfig::config1();
    {
        SnapshotRegistry warm(dir);
        ASSERT_TRUE(warm.acquire(make, cfg, 1) != nullptr);
    }
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".bin")
            corruptStoreFile(entry.path().string());
    }

    SnapshotRegistry reg(dir);
    reg.setStrict(true);
    EXPECT_DEATH((void)reg.acquire(make, cfg, 1),
                 "checksum mismatch");
    setQuietLogging(false);
}

} // anonymous namespace
} // namespace harness
} // namespace seqpoint
