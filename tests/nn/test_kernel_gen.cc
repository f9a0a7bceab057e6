/**
 * @file
 * Tests for kernel generation: FLOP counts, traffic models, naming.
 */

#include <gtest/gtest.h>

#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {
namespace {

sim::KernelStem
stem(const char *text)
{
    return sim::KernelStem(text);
}

TEST(GemmGen, FlopsAndDims)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    sim::KernelDesc k =
        resolveKernel(makeGemm(stem("g"), 100, 200, 300), tuner);
    EXPECT_DOUBLE_EQ(k.flops, 2.0 * 100 * 200 * 300);
    EXPECT_EQ(k.gemmM, 100);
    EXPECT_EQ(k.gemmN, 200);
    EXPECT_EQ(k.gemmK, 300);
    EXPECT_EQ(k.klass, sim::KernelClass::Gemm);
}

TEST(GemmGen, NameCarriesVariant)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    sim::KernelDesc k =
        resolveKernel(makeGemm(stem("fc_fwd"), 512, 512, 512), tuner);
    EXPECT_EQ(k.name().rfind("fc_fwd_MT", 0), 0u) << k.name();
}

TEST(GemmGen, SmallerTilesMeanMoreTraffic)
{
    GemmVariant big{128, 128, 16};
    GemmVariant small{32, 32, 16};
    sim::KernelDesc kb = gemmKernelForVariant(stem("g"), 1024, 1024, 512, big);
    sim::KernelDesc ks = gemmKernelForVariant(stem("g"), 1024, 1024, 512,
                                              small);
    EXPECT_GT(ks.bytesIn, kb.bytesIn);
    EXPECT_DOUBLE_EQ(ks.flops, kb.flops);
}

TEST(GemmGen, SmallTilesLoseEfficiency)
{
    GemmVariant big{128, 128, 16};
    GemmVariant small{16, 16, 16};
    sim::KernelDesc kb = gemmKernelForVariant(stem("g"), 512, 512, 512, big);
    sim::KernelDesc ks =
        gemmKernelForVariant(stem("g"), 512, 512, 512, small);
    EXPECT_GT(kb.effScale, ks.effScale);
}

TEST(ConvGen, OutputLengths)
{
    EXPECT_EQ(convOutLen(100, 11, 2), 50);
    EXPECT_EQ(convOutLen(161, 41, 2), 81);
    EXPECT_EQ(convOutLen(81, 21, 2), 41);
    EXPECT_EQ(convOutLen(7, 3, 1), 7);
}

TEST(ConvGen, ImplicitGemmShape)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    sim::KernelDesc k = resolveKernel(
        makeConv2d(stem("conv1_fwd_igemm"), 64, 1, 32, 200, 161, 11, 41,
                   2, 2),
        tuner);
    EXPECT_EQ(k.gemmM, 32);
    EXPECT_EQ(k.gemmK, 1 * 11 * 41);
    EXPECT_EQ(k.gemmN, 64 * 100 * 81);
    EXPECT_EQ(k.name().rfind("conv1_fwd_igemm_MT", 0), 0u) << k.name();
}

TEST(SoftmaxGen, BlockVariantDependsOnCols)
{
    sim::KernelDesc small = makeSoftmax(stem("sm"), 64, 100);
    sim::KernelDesc large = makeSoftmax(stem("sm"), 64, 900);
    EXPECT_NE(small.name(), large.name());
    EXPECT_EQ(small.name(), "sm_b128");
    EXPECT_EQ(large.name(), "sm_b1024");
}

TEST(SoftmaxGen, TrafficScalesWithElems)
{
    sim::KernelDesc a = makeSoftmax(stem("sm"), 100, 1000);
    sim::KernelDesc b = makeSoftmax(stem("sm"), 200, 1000);
    EXPECT_NEAR(b.bytesIn / a.bytesIn, 2.0, 1e-12);
}

TEST(EmbeddingGen, TableIsL2WorkingSet)
{
    sim::KernelDesc k =
        makeEmbeddingGather(stem("emb"), 1000, 1024, 36549);
    EXPECT_DOUBLE_EQ(k.workingSetL2, 36549.0 * 1024.0 * 4.0);
    EXPECT_EQ(k.klass, sim::KernelClass::Embedding);
}

TEST(EmbeddingGen, BiggerVocabSlower)
{
    // Observation 6: vocabulary size affects runtime.
    sim::Gpu gpu(sim::GpuConfig::config1());
    sim::KernelDesc small_v =
        makeEmbeddingGather(stem("emb"), 4096, 1024, 1000);
    sim::KernelDesc big_v =
        makeEmbeddingGather(stem("emb"), 4096, 1024, 200000);
    EXPECT_LT(gpu.execute(small_v).timeSec, gpu.execute(big_v).timeSec);
}

TEST(BatchNormGen, TwoPassTraffic)
{
    sim::KernelDesc k = makeBatchNorm(stem("bn"), 1000);
    EXPECT_DOUBLE_EQ(k.bytesIn, 8000.0);
    EXPECT_DOUBLE_EQ(k.bytesOut, 4000.0);
}

TEST(ScalarGen, TinyLaunch)
{
    sim::KernelDesc k = makeScalarOp(stem("lr"));
    EXPECT_EQ(k.name(), "lr");
    EXPECT_EQ(k.klass, sim::KernelClass::Scalar);
    EXPECT_LT(k.workItems, 100.0);
}

TEST(KernelGenDeath, RejectsBadInputs)
{
    EXPECT_DEATH(makeSoftmax(stem("sm"), 0, 10), "non-positive");
    EXPECT_DEATH(makeEmbeddingGather(stem("e"), 10, 10, 0),
                 "non-positive");
    EXPECT_DEATH(convOutLen(0, 3, 1), "non-positive");
}

} // anonymous namespace
} // namespace nn
} // namespace seqpoint
