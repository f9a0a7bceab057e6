/**
 * @file
 * Tests for the reference model builders (GNMT, DS2, CNN,
 * Transformer), including the paper's Table I GEMM dimensions.
 */

#include <gtest/gtest.h>

#include <set>

#include "models/cnn.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "models/transformer.hh"
#include "nn/autotune.hh"

namespace seqpoint {
namespace models {
namespace {

/** Find the GEMM kernel whose name starts with the given prefix. */
const sim::KernelDesc *
findGemm(const std::vector<sim::KernelDesc> &ks, const std::string &pfx)
{
    for (const auto &k : ks) {
        if (k.klass == sim::KernelClass::Gemm &&
            k.name().rfind(pfx, 0) == 0) {
            return &k;
        }
    }
    return nullptr;
}

TEST(Gnmt, StructureMatchesPaper)
{
    nn::Model m = buildGnmt();
    // embed + 8 enc LSTM + embed + attention + 8 dec LSTM + FC + loss.
    EXPECT_EQ(m.numLayers(), 1u + 8u + 1u + 1u + 8u + 1u + 1u);
    EXPECT_GT(m.paramCount(), 100'000'000ull); // ~250M params
}

TEST(Gnmt, TableOneGemmDims)
{
    // Paper Table I (GNMT): GEMM-a M=36549 K=1024 N in {6016, 576};
    // GEMM-b M=1024 K=36549, same N. N = 64 * target-len, and
    // target-len(sl-1=99) = 94, target-len(sl-2=9) = 9.
    nn::Model m = buildGnmt();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);

    for (auto [sl, n] : {std::pair<int64_t, int64_t>{99, 6016},
                         std::pair<int64_t, int64_t>{9, 576}}) {
        auto ks = m.lowerIteration(64, sl, tuner);
        const sim::KernelDesc *a = findGemm(ks, "classifier_fwd");
        ASSERT_NE(a, nullptr);
        EXPECT_EQ(a->gemmM, 36549);
        EXPECT_EQ(a->gemmK, 1024);
        EXPECT_EQ(a->gemmN, n);

        const sim::KernelDesc *b = findGemm(ks, "classifier_bwd_data");
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->gemmM, 1024);
        EXPECT_EQ(b->gemmK, 36549);
        EXPECT_EQ(b->gemmN, n);
    }
}

TEST(Ds2, StructureMatchesPaper)
{
    nn::Model m = buildDs2();
    // 2 conv + 1 bn + 5 bi-GRU + FC + loss.
    EXPECT_EQ(m.numLayers(), 2u + 1u + 5u + 1u + 1u);
}

TEST(Ds2, TableOneGemmDims)
{
    // Paper Table I (DS2): GEMM-a M=29 K=1600 N in {25728, 3776};
    // GEMM-b M=1600 K=29. N = 64 * SL: SL 402 and 59.
    nn::Model m = buildDs2();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);

    for (auto [sl, n] : {std::pair<int64_t, int64_t>{402, 25728},
                         std::pair<int64_t, int64_t>{59, 3776}}) {
        auto ks = m.lowerIteration(64, sl, tuner);
        const sim::KernelDesc *a = findGemm(ks, "classifier_fwd");
        ASSERT_NE(a, nullptr);
        EXPECT_EQ(a->gemmM, 29);
        EXPECT_EQ(a->gemmK, 1600);
        EXPECT_EQ(a->gemmN, n);

        const sim::KernelDesc *b = findGemm(ks, "classifier_bwd_data");
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->gemmM, 1600);
        EXPECT_EQ(b->gemmK, 29);
        EXPECT_EQ(b->gemmN, n);
    }
}

TEST(Ds2, GruInputWidthFollowsConvFeatures)
{
    nn::Model m = buildDs2();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    auto ks = m.lowerIteration(64, 100, tuner);
    // First GRU input GEMM: K = 32 channels * 41 freq = 1312.
    const sim::KernelDesc *wx = findGemm(ks, "gru_wx_fwd");
    ASSERT_NE(wx, nullptr);
    EXPECT_EQ(wx->gemmK, 1312);
    EXPECT_EQ(wx->gemmM, 3 * 800);
}

TEST(Cnn, IterationsAreInputIndependent)
{
    nn::Model m = buildCnn();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    auto a = m.lowerIteration(64, 1, tuner);
    auto b = m.lowerIteration(64, 1, tuner);
    ASSERT_EQ(a.size(), b.size());
    double fa = 0.0, fb = 0.0;
    for (const auto &k : a)
        fa += k.flops;
    for (const auto &k : b)
        fb += k.flops;
    EXPECT_DOUBLE_EQ(fa, fb);
}

TEST(Transformer, QuadraticAttentionScaling)
{
    nn::Model m = buildTransformer();
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);

    auto flops_at = [&](int64_t sl) {
        double f = 0.0;
        for (const auto &k : m.lowerIteration(16, sl, tuner)) {
            if (k.name().rfind("attn_score", 0) == 0)
                f += k.flops * static_cast<double>(k.repeat);
        }
        return f;
    };
    // Score FLOPs ~ T^2: quadrupling under 2x SL.
    EXPECT_NEAR(flops_at(128) / flops_at(64), 4.0, 0.2);
}

TEST(Models, AllBuildersProduceDistinctNames)
{
    std::set<std::string> names;
    names.insert(buildGnmt().name());
    names.insert(buildDs2().name());
    names.insert(buildCnn().name());
    names.insert(buildTransformer().name());
    EXPECT_EQ(names.size(), 4u);
}

} // anonymous namespace
} // namespace models
} // namespace seqpoint
