/**
 * @file
 * Tests for the GEMM autotuner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "harness/experiment.hh"
#include "harness/workloads.hh"
#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"
#include "nn/model.hh"
#include "nn/resolved_ops.hh"
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
    // variants are those of probes executed on the device; probes
    // that bypass its timing cache must match them.
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
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    for (const Pinned &p : shapes) {
        const GemmVariant &v = tuner.select(p.m, p.n, p.k);
        EXPECT_TRUE(v.tileM == p.variant.tileM &&
                    v.tileN == p.variant.tileN &&
                    v.tileK == p.variant.tileK)
            << p.m << "x" << p.n << "x" << p.k;
    }
    EXPECT_EQ(gpu.uniqueKernelsTimed(), 0u);
    EXPECT_EQ(gpu.timingCacheStats().lookups(), 0u);
}

bool
sameVariant(const GemmVariant &a, const GemmVariant &b)
{
    return a.tileM == b.tileM && a.tileN == b.tileN && a.tileK == b.tileK;
}

/** A GEMM shape a model tunes. */
using Shape = std::tuple<int64_t, int64_t, int64_t>;

/**
 * Every GEMM shape a workload's Experiment tunes on a configuration
 * (its epoch paid), with the variant the network's resolved-op table
 * for the configuration holds for it.
 */
std::map<Shape, GemmVariant>
tableVariants(const harness::WorkloadFactory &factory,
              const sim::GpuConfig &cfg)
{
    harness::Experiment exp(factory());
    exp.epochLog(cfg);
    const Model &model = exp.workload().model;
    std::vector<uint32_t> ids(model.opCount());
    for (uint32_t id = 0; id < ids.size(); ++id)
        ids[id] = id;
    std::vector<sim::KernelDesc> ops;
    std::vector<uint32_t> shapes;
    model.copyOps(ids, ops, shapes);
    std::vector<ResolvedOps::ShapeSlot *> slots;
    model.resolvedOps(cfg, Autotuner::Mode::Measured)
        ->shapeSlots(shapes, slots);
    std::map<Shape, GemmVariant> tuned;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (slots[i] && slots[i]->published())
            tuned.emplace(Shape{ops[i].gemmM, ops[i].gemmN, ops[i].gemmK},
                          slots[i]->value());
    }
    return tuned;
}

/**
 * The oracle a Measured tuner must reproduce: the full timing model
 * over the six menu tiles, first minimum wins.
 */
GemmVariant
oracleVariant(int64_t m, int64_t n, int64_t k, const sim::GpuConfig &cfg)
{
    const sim::KernelStem probe("oracle_probe");
    GemmVariant variant;
    double best = 0.0;
    bool first = true;
    for (const GemmVariant &v : gemmVariantMenu()) {
        double t = sim::timeKernel(gemmKernelForVariant(probe, m, n, k, v),
                                   cfg).timeSec;
        if (first || t < best) {
            variant = v;
            best = t;
            first = false;
        }
    }
    return variant;
}

TEST(AutotunerDifferential, ModelShapesMatchTimeKernelOracle)
{
    // Every shape GNMT and DS2 tune at seed 23, on every Table II
    // configuration (#4 has no L1, #5 no L2): the network's table
    // and a fresh tuner must both pick the oracle's variant.
    const std::pair<const char *, harness::WorkloadFactory> workloads[] = {
        {"GNMT", [] { return harness::makeGnmtWorkload(23); }},
        {"DS2", [] { return harness::makeDs2Workload(23); }},
    };
    for (const auto &[name, factory] : workloads) {
        for (const sim::GpuConfig &cfg : sim::GpuConfig::table2()) {
            const std::map<Shape, GemmVariant> tuned =
                tableVariants(factory, cfg);
            EXPECT_GT(tuned.size(), 1000u) << name << " " << cfg.name;

            sim::Gpu gpu(cfg);
            Autotuner fresh(Autotuner::Mode::Measured, &gpu);
            size_t mismatches = 0;
            for (const auto &[shape, variant] : tuned) {
                const auto &[m, n, k] = shape;
                GemmVariant want = oracleVariant(m, n, k, cfg);
                bool ok = sameVariant(variant, want) &&
                    sameVariant(fresh.select(m, n, k), want);
                if (!ok && ++mismatches <= 5) {
                    ADD_FAILURE() << name << " " << cfg.name << " " << m
                                  << "x" << n << "x" << k;
                }
            }
            EXPECT_EQ(mismatches, 0u) << name << " " << cfg.name;
            EXPECT_EQ(fresh.cacheSize(), tuned.size());
        }
    }
}

TEST(AutotunerConcurrency, RacingSelectsMatchSerialTuner)
{
    // Four threads tune the GNMT shape list on one shared Measured
    // tuner, each in its own order. Whoever wins a shape's race, the
    // cache and every returned variant equal a serial tuner's.
    std::vector<Shape> shapes;
    for (const auto &[shape, variant] :
         tableVariants([] { return harness::makeGnmtWorkload(23); },
                       sim::GpuConfig::config1()))
        shapes.push_back(shape);
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
    EXPECT_EQ(shared.cacheSize(), serial.cacheSize());
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
