/**
 * @file
 * Tests for cooperative cancellation: token/scope semantics, the
 * classified unwind (Cancelled vs Timeout), and the three expensive
 * paths that must pass a cancellation through untouched -- the
 * profiling sweep, snapshot decode (no quarantine of a healthy
 * file), and scheduler cell evaluation (no retry burn) -- leaving
 * the Experiment and registry reusable afterwards.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <thread>

#include "common/cancel.hh"
#include "common/fault_injection.hh"
#include "harness/experiment.hh"
#include "harness/scheduler.hh"
#include "harness/snapshot_registry.hh"
#include "harness/workloads.hh"

namespace seqpoint {
namespace {

namespace fs = std::filesystem;

TEST(CancelToken, ExplicitCancelClassifiesCancelled)
{
    CancelToken token;
    EXPECT_FALSE(token.fired());
    EXPECT_TRUE(token.status().ok());

    token.cancel();
    EXPECT_TRUE(token.fired());
    EXPECT_EQ(token.status("work").code(), ErrorCode::Cancelled);
    EXPECT_THROW(token.checkpoint("work"), CancelledError);
}

TEST(CancelToken, ExpiredDeadlineClassifiesTimeout)
{
    CancelToken token;
    token.armAfter(-1.0);
    EXPECT_TRUE(token.fired());
    EXPECT_EQ(token.status("work").code(), ErrorCode::Timeout);
    try {
        token.checkpoint("sweep");
        FAIL() << "checkpoint did not throw";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::Timeout);
        EXPECT_NE(e.status().message().find("sweep"),
                  std::string::npos);
    }

    // Infinity disarms; an un-fired token checkpoints for free.
    token.setDeadline(std::numeric_limits<double>::infinity());
    EXPECT_FALSE(token.fired());
    EXPECT_NO_THROW(token.checkpoint("work"));
}

TEST(CancelToken, CancelledErrorIsRecoverable)
{
    // Generic containment layers catch RecoverableError; a
    // cancellation must be classifiable there too.
    CancelToken token;
    token.cancel();
    try {
        token.checkpoint("x");
        FAIL() << "checkpoint did not throw";
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::Cancelled);
    }
}

TEST(CancelScope, ScopesNestAndRestore)
{
    EXPECT_EQ(currentCancelToken(), nullptr);
    EXPECT_NO_THROW(cancelCheckpoint("idle")); // bare TLS load

    CancelToken outer, inner;
    {
        CancelScope outer_scope(&outer);
        EXPECT_EQ(currentCancelToken(), &outer);
        {
            CancelScope inner_scope(&inner);
            EXPECT_EQ(currentCancelToken(), &inner);
        }
        EXPECT_EQ(currentCancelToken(), &outer);

        outer.cancel();
        EXPECT_THROW(cancelCheckpoint("work"), CancelledError);
    }
    EXPECT_EQ(currentCancelToken(), nullptr);
    EXPECT_NO_THROW(cancelCheckpoint("idle"));
}

TEST(CancelScope, ScopeIsPerThread)
{
    CancelToken token;
    token.cancel();
    CancelScope scope(&token);
    std::thread other([] {
        // The installing thread's scope must not leak here.
        EXPECT_EQ(currentCancelToken(), nullptr);
        EXPECT_NO_THROW(cancelCheckpoint("other-thread"));
    });
    other.join();
    EXPECT_THROW(cancelCheckpoint("this-thread"), CancelledError);
}

TEST(Cancel, ProfilingSweepUnwindsAndExperimentStaysReusable)
{
    sim::GpuConfig cfg = sim::GpuConfig::config1();

    harness::Experiment exp(harness::makeDs2Workload());
    exp.setProfileThreads(1);
    {
        CancelToken token;
        token.cancel();
        CancelScope scope(&token);
        EXPECT_THROW(exp.epochLog(cfg), CancelledError);
    }

    // The unwound Experiment answers the same query cleanly and
    // bit-identically to a never-cancelled one.
    harness::Experiment clean(harness::makeDs2Workload());
    clean.setProfileThreads(1);
    EXPECT_TRUE(exp.epochLog(cfg).identicalTo(clean.epochLog(cfg)));
}

TEST(Cancel, ParallelProfilingSweepUnwinds)
{
    // The parallel sweep fans out over the shared pool; the helpers
    // re-install the caller's token, so the cancellation is observed
    // no matter which thread claims the poisoned index.
    harness::Experiment exp(harness::makeDs2Workload());
    exp.setProfileThreads(2);
    CancelToken token;
    token.cancel();
    CancelScope scope(&token);
    EXPECT_THROW(exp.epochLog(sim::GpuConfig::config1()),
                 CancelledError);
}

TEST(Cancel, SnapshotDecodeUnwindsWithoutQuarantine)
{
    std::string dir =
        (fs::path(testing::TempDir()) / "cancel_store").string();
    std::error_code ec;
    fs::remove_all(dir, ec);

    auto make = [] { return harness::makeDs2Workload(); };
    sim::GpuConfig cfg = sim::GpuConfig::config1();
    {
        harness::SnapshotRegistry writer(dir);
        (void)writer.acquire(make, cfg, 1);
        EXPECT_EQ(writer.stats().builds, 1u);
    }
    std::size_t bins = 0;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        bins += entry.path().extension() == ".bin";
    ASSERT_EQ(bins, 1u);

    // A fired token unwinds out of the store load as CancelledError
    // -- not absorbed into "corrupt file", which would quarantine a
    // perfectly healthy store entry.
    harness::SnapshotRegistry reader(dir);
    {
        CancelToken token;
        token.cancel();
        CancelScope scope(&token);
        EXPECT_THROW((void)reader.acquire(make, cfg, 1),
                     CancelledError);
    }
    EXPECT_EQ(reader.stats().quarantines, 0u);
    std::size_t bins_after = 0, corrupt_after = 0;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        bins_after += entry.path().extension() == ".bin";
        corrupt_after += entry.path().extension() == ".corrupt";
    }
    EXPECT_EQ(bins_after, 1u);
    EXPECT_EQ(corrupt_after, 0u);

    // The registry is reusable: without the scope the same acquire
    // replays from the store (no rebuild).
    auto snap = reader.acquire(make, cfg, 1);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(reader.stats().builds, 0u);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    fs::remove_all(dir, ec);
}

TEST(Cancel, SchedulerCellUnwindsWithoutBurningRetries)
{
    std::vector<harness::WorkloadFactory> workloads = {
        [] { return harness::makeDs2Workload(); },
    };
    std::vector<sim::GpuConfig> configs = {
        sim::GpuConfig::config1(), sim::GpuConfig::config2(),
    };

    auto &inj = FaultInjector::instance();
    inj.reset();

    harness::ExperimentScheduler sched(2);
    sched.setCellRetries(3);
    std::function<std::size_t(harness::Experiment &,
                              const sim::GpuConfig &)>
        eval = [](harness::Experiment &exp, const sim::GpuConfig &cfg) {
            return exp.epochLog(cfg).numIterations();
        };
    CancelToken token;
    token.cancel();
    CancelScope scope(&token);
    // The cancellation propagates as CancelledError (not absorbed by
    // the retry loop into a failed-after-4-attempts cell), and the
    // unwind happens before the cell body ever runs: the cell fault
    // point records zero occurrences, i.e. no retry was burned.
    EXPECT_THROW(
        (void)sched.mapCells<std::size_t>(workloads, configs, eval),
        CancelledError);
    EXPECT_EQ(inj.occurrences("scheduler.cell"), 0u);
    inj.reset();
}

} // anonymous namespace
} // namespace seqpoint
