/**
 * @file
 * Tests for the GEMM autotuner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "harness/experiment.hh"
#include "harness/workloads.hh"
#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"
#include "sim/gpu.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace nn {
namespace {

TEST(GemmVariant, SuffixFormat)
{
    GemmVariant v{128, 64, 16};
    sim::KernelDesc k =
        gemmKernelForVariant(sim::KernelStem("fc_fwd"), 64, 64, 64, v);
    EXPECT_EQ(k.name(), "fc_fwd_MT128x64_K16");
}

TEST(VariantMenu, NonEmptyAndOrdered)
{
    const auto &menu = gemmVariantMenu();
    ASSERT_GE(menu.size(), 4u);
    for (size_t i = 1; i < menu.size(); ++i) {
        EXPECT_LE(menu[i].tileM * menu[i].tileN,
                  menu[i - 1].tileM * menu[i - 1].tileN);
    }
}

TEST(Autotuner, HeuristicCachesPerShape)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    const GemmVariant &a = tuner.select(1024, 1024, 256);
    const GemmVariant &b = tuner.select(1024, 1024, 256);
    EXPECT_EQ(&a, &b); // same cached object
    EXPECT_EQ(tuner.cacheSize(), 1u);
    tuner.select(64, 64, 64);
    EXPECT_EQ(tuner.cacheSize(), 2u);
}

TEST(Autotuner, HeuristicHasZeroTuningCost)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    tuner.select(512, 512, 512);
    EXPECT_DOUBLE_EQ(tuner.tuningCostSec(), 0.0);
}

TEST(Autotuner, HeuristicPrefersBigTilesForBigGemm)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    const GemmVariant &v = tuner.select(4096, 4096, 1024);
    EXPECT_GE(v.tileM * v.tileN, 64u * 64u);
}

TEST(Autotuner, HeuristicAvoidsWasteOnSkinnyGemm)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    const GemmVariant &v = tuner.select(4096, 64, 1024);
    // An N-64 GEMM should not pad the N dimension beyond 64.
    EXPECT_LE(v.tileN, 64u);
}

TEST(Autotuner, MeasuredAccruesTuningCost)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    tuner.select(1024, 1024, 512);
    EXPECT_GT(tuner.tuningCostSec(), 0.0);
    double cost_after_one = tuner.tuningCostSec();
    tuner.select(1024, 1024, 512); // cached: no extra cost
    EXPECT_DOUBLE_EQ(tuner.tuningCostSec(), cost_after_one);
}

TEST(Autotuner, MeasuredPicksFastestCandidate)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    const GemmVariant &chosen = tuner.select(2048, 2048, 512);
    const sim::KernelStem probe("probe");

    double chosen_time = gpu.execute(
        gemmKernelForVariant(probe, 2048, 2048, 512, chosen)).timeSec;
    for (const GemmVariant &v : gemmVariantMenu()) {
        sim::KernelDesc k = gemmKernelForVariant(probe, 2048, 2048, 512, v);
        EXPECT_LE(chosen_time, gpu.execute(k).timeSec + 1e-15) << k.name();
    }
}

TEST(Autotuner, MeasuredProbesBypassTheTimingCache)
{
    // Pinned shapes from the GNMT/DS2 lowering (classifier, recurrent
    // and attention GEMMs) plus skinny and tiny edge cases. The
    // variants and cost bits are those of probes executed on the
    // device; probes that bypass its timing cache must match them.
    struct Pinned {
        int64_t m, n, k;
        GemmVariant variant;
    };
    const Pinned shapes[] = {
        {36549, 6016, 1024, {128, 64, 16}},
        {1024, 576, 36549, {64, 32, 16}},
        {4096, 64, 1024, {16, 16, 16}},
        {4096, 64, 2048, {16, 16, 16}},
        {1024, 64, 1024, {16, 16, 16}},
        {29, 25728, 1600, {64, 64, 16}},
        {32, 1030400, 451, {128, 128, 16}},
        {37, 64, 1024, {16, 16, 16}},
        {64, 64, 64, {16, 16, 16}},
        {7, 3, 5, {64, 64, 16}},
    };
    const uint64_t cost_bits = 0x3febfc089d286fddULL;

    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    for (const Pinned &p : shapes) {
        const GemmVariant &v = tuner.select(p.m, p.n, p.k);
        EXPECT_TRUE(v.tileM == p.variant.tileM &&
                    v.tileN == p.variant.tileN &&
                    v.tileK == p.variant.tileK)
            << p.m << "x" << p.n << "x" << p.k;
    }
    double cost = tuner.tuningCostSec();
    uint64_t bits;
    std::memcpy(&bits, &cost, sizeof(bits));
    EXPECT_EQ(bits, cost_bits) << std::hex << bits;
    EXPECT_EQ(gpu.uniqueKernelsTimed(), 0u);
    EXPECT_EQ(gpu.timingCacheStats().lookups(), 0u);
}

/** @return The bit pattern of a double. */
uint64_t
bitsOf(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

bool
sameVariant(const GemmVariant &a, const GemmVariant &b)
{
    return a.tileM == b.tileM && a.tileN == b.tileN && a.tileK == b.tileK;
}

/** A GEMM shape a model tunes. */
using Shape = std::tuple<int64_t, int64_t, int64_t>;

/**
 * Every GEMM shape a workload's Experiment tunes on a configuration,
 * in shape-key order: the tuner entries of its snapshot (epoch,
 * selections and projections all paid).
 */
std::vector<AutotuneEntry>
tunedEntries(const harness::WorkloadFactory &factory,
             const sim::GpuConfig &cfg)
{
    harness::Experiment exp(factory());
    return exp.snapshot(cfg)->tunerEntries;
}

/**
 * The oracle a Measured tuner must reproduce bit for bit: the full
 * timing model over the six menu tiles, first minimum wins, the six
 * times summed in menu order.
 */
AutotuneEntry
oracleEntry(int64_t m, int64_t n, int64_t k, const sim::GpuConfig &cfg)
{
    const sim::KernelStem probe("oracle_probe");
    AutotuneEntry e{m, n, k, {}, 0.0};
    double best = 0.0;
    bool first = true;
    for (const GemmVariant &v : gemmVariantMenu()) {
        double t = sim::timeKernel(gemmKernelForVariant(probe, m, n, k, v),
                                   cfg).timeSec;
        e.costSec += t;
        if (first || t < best) {
            e.variant = v;
            best = t;
            first = false;
        }
    }
    return e;
}

TEST(AutotunerDifferential, ModelShapesMatchTimeKernelOracle)
{
    // Every shape GNMT and DS2 tune at seed 23, on every Table II
    // configuration (#4 has no L1, #5 no L2): the Experiment's own
    // tuner and a fresh one must both pick the oracle's variant and
    // record the oracle's cost bits.
    const std::pair<const char *, harness::WorkloadFactory> workloads[] = {
        {"GNMT", [] { return harness::makeGnmtWorkload(23); }},
        {"DS2", [] { return harness::makeDs2Workload(23); }},
    };
    for (const auto &[name, factory] : workloads) {
        for (const sim::GpuConfig &cfg : sim::GpuConfig::table2()) {
            std::vector<AutotuneEntry> entries = tunedEntries(factory, cfg);
            EXPECT_GT(entries.size(), 1000u) << name << " " << cfg.name;

            sim::Gpu gpu(cfg);
            Autotuner fresh(Autotuner::Mode::Measured, &gpu);
            double oracle_total = 0.0;
            size_t mismatches = 0;
            for (const AutotuneEntry &e : entries) {
                AutotuneEntry want = oracleEntry(e.m, e.n, e.k, cfg);
                oracle_total += want.costSec;
                const GemmVariant &got = fresh.select(e.m, e.n, e.k);
                bool ok = sameVariant(e.variant, want.variant) &&
                    bitsOf(e.costSec) == bitsOf(want.costSec) &&
                    sameVariant(got, want.variant);
                if (!ok && ++mismatches <= 5) {
                    ADD_FAILURE() << name << " " << cfg.name << " " << e.m
                                  << "x" << e.n << "x" << e.k;
                }
            }
            EXPECT_EQ(mismatches, 0u) << name << " " << cfg.name;

            // Shape-key order is the entries' order, so the fresh
            // tuner's bill is the oracle's sum in that order.
            EXPECT_EQ(bitsOf(fresh.tuningCostSec()), bitsOf(oracle_total))
                << name << " " << cfg.name;
            std::vector<AutotuneEntry> fresh_entries =
                fresh.snapshotEntries();
            ASSERT_EQ(fresh_entries.size(), entries.size());
            for (size_t i = 0; i < entries.size(); ++i) {
                EXPECT_EQ(bitsOf(fresh_entries[i].costSec),
                          bitsOf(entries[i].costSec));
            }
        }
    }
}

TEST(AutotunerConcurrency, RacingSelectsMatchSerialTuner)
{
    // Four threads tune the GNMT shape list on one shared Measured
    // tuner, each in its own order. Whoever wins a shape's race, the
    // entries, the bill and every returned variant equal a serial
    // tuner's.
    std::vector<Shape> shapes;
    for (const AutotuneEntry &e :
         tunedEntries([] { return harness::makeGnmtWorkload(23); },
                      sim::GpuConfig::config1()))
        shapes.emplace_back(e.m, e.n, e.k);
    ASSERT_GT(shapes.size(), 1000u);

    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner serial(Autotuner::Mode::Measured, &gpu);
    std::map<Shape, GemmVariant> want;
    for (const auto &[m, n, k] : shapes)
        want[Shape{m, n, k}] = serial.select(m, n, k);

    Autotuner shared(Autotuner::Mode::Measured, &gpu);
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<Shape>> orders(kThreads, shapes);
    std::reverse(orders[1].begin(), orders[1].end());
    for (unsigned t = 2; t < kThreads; ++t) {
        Rng rng(100 + t);
        rng.shuffle(orders[t]);
    }
    std::vector<std::vector<GemmVariant>> got(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (const auto &[m, n, k] : orders[t])
                got[t].push_back(shared.select(m, n, k));
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), orders[t].size());
        size_t mismatches = 0;
        for (size_t i = 0; i < orders[t].size(); ++i)
            mismatches += !sameVariant(got[t][i], want.at(orders[t][i]));
        EXPECT_EQ(mismatches, 0u) << "thread " << t;
    }
    EXPECT_EQ(bitsOf(shared.tuningCostSec()), bitsOf(serial.tuningCostSec()));

    std::vector<AutotuneEntry> a = shared.snapshotEntries();
    std::vector<AutotuneEntry> b = serial.snapshotEntries();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].m == b[i].m && a[i].n == b[i].n &&
                    a[i].k == b[i].k &&
                    sameVariant(a[i].variant, b[i].variant) &&
                    bitsOf(a[i].costSec) == bitsOf(b[i].costSec))
            << a[i].m << "x" << a[i].n << "x" << a[i].k;
    }
}

TEST(Autotuner, ResetClearsCacheAndCost)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    tuner.select(256, 256, 256);
    tuner.reset();
    EXPECT_EQ(tuner.cacheSize(), 0u);
    EXPECT_DOUBLE_EQ(tuner.tuningCostSec(), 0.0);
}

std::vector<AutotuneEntry>
sampleEntries()
{
    std::vector<AutotuneEntry> v;
    v.push_back({1024, 1024, 256, {128, 128, 16}, 0.0});
    v.push_back({1024, 1024, 512, {128, 64, 16}, 1.5e-3});
    v.push_back({64, 4096, 64, {16, 16, 16}, 2.25e-4});
    v.push_back({2048, 32, 2048, {64, 32, 16}, 7.0});
    v.push_back({-3, 0, 9, {0, 0, 0}, -0.0}); // hostile but encodable
    return v;
}

TEST(AutotuneSection, RoundTripsBitExactly)
{
    std::vector<AutotuneEntry> in = sampleEntries();
    ByteWriter w;
    encodeAutotuneSection(w, in);

    ByteReader r(w.data(), "test-autotune-section");
    std::vector<AutotuneEntry> out = decodeAutotuneSection(r);
    ASSERT_EQ(out.size(), in.size());

    // decode returns canonical (shape-key) order; re-encoding must
    // reproduce the exact bytes.
    ByteWriter w2;
    encodeAutotuneSection(w2, out);
    EXPECT_EQ(w2.data(), w.data());

    // Every input entry survives bit-exactly (costSec included).
    for (const AutotuneEntry &e : in) {
        bool found = false;
        for (const AutotuneEntry &d : out) {
            found |= d.m == e.m && d.n == e.n && d.k == e.k &&
                     d.variant.tileM == e.variant.tileM &&
                     d.variant.tileN == e.variant.tileN &&
                     d.variant.tileK == e.variant.tileK &&
                     std::memcmp(&d.costSec, &e.costSec,
                                 sizeof(double)) == 0;
        }
        EXPECT_TRUE(found) << e.m << "x" << e.n << "x" << e.k;
    }
}

TEST(AutotuneSection, EncodingIsOrderIndependent)
{
    std::vector<AutotuneEntry> in = sampleEntries();
    ByteWriter w;
    encodeAutotuneSection(w, in);

    std::reverse(in.begin(), in.end());
    ByteWriter wr;
    encodeAutotuneSection(wr, in);
    EXPECT_EQ(wr.data(), w.data());
}

TEST(AutotuneSection, EmptyRoundTrips)
{
    ByteWriter w;
    encodeAutotuneSection(w, {});
    ByteReader r(w.data(), "test-autotune-empty");
    EXPECT_TRUE(decodeAutotuneSection(r).empty());
}

TEST(AutotuneSection, PacksTighterThanRawEntries)
{
    std::vector<AutotuneEntry> in;
    for (int i = 0; i < 64; ++i)
        in.push_back({512 + i, 512, 64 * (i % 4 + 1),
                      gemmVariantMenu()[i % gemmVariantMenu().size()],
                      0.0});
    ByteWriter packed;
    encodeAutotuneSection(packed, in);
    ByteWriter raw;
    for (const AutotuneEntry &e : in)
        encodeAutotuneEntry(raw, e);
    EXPECT_LT(packed.data().size(), raw.data().size() / 2);
}

TEST(AutotuneSection, TruncatedPayloadThrowsRecoverable)
{
    ByteWriter w;
    encodeAutotuneSection(w, sampleEntries());
    std::string bytes = w.data();
    bytes.resize(bytes.size() / 2);
    ByteReader r(bytes, "test-autotune-trunc",
                 ByteReader::OnError::Throw);
    EXPECT_THROW(decodeAutotuneSection(r), RecoverableError);
}

TEST(AutotuneSection, HostileCountIsBoundedBeforeAllocation)
{
    // A huge entry count with a near-empty payload must fail on
    // truncation, not allocate by the count.
    ByteWriter w;
    w.u64(uint64_t(1) << 62);
    ByteReader r(w.data(), "test-autotune-count",
                 ByteReader::OnError::Throw);
    EXPECT_THROW(decodeAutotuneSection(r), RecoverableError);
}

TEST(AutotunerDeath, MeasuredRequiresDevice)
{
    EXPECT_DEATH(Autotuner(Autotuner::Mode::Measured, nullptr),
                 "device");
}

TEST(AutotunerDeath, RejectsBadDims)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    EXPECT_DEATH(tuner.select(0, 10, 10), "non-positive");
}

} // anonymous namespace
} // namespace nn
} // namespace seqpoint
