/**
 * @file
 * Tests for layer lowering: kernel counts, SL scaling, axis handling.
 */

#include <gtest/gtest.h>

#include <memory>

#include "nn/layer.hh"
#include "nn/layers/attention.hh"
#include "nn/layers/batchnorm.hh"
#include "nn/layers/conv2d.hh"
#include "nn/layers/embedding.hh"
#include "nn/layers/fully_connected.hh"
#include "nn/layers/recurrent.hh"
#include "nn/layers/softmax_loss.hh"
#include "nn/model.hh"

namespace seqpoint {
namespace nn {
namespace {

struct LowerFixture {
    std::vector<sim::KernelDesc> out;

    LowerCtx
    ctx(unsigned batch, int64_t sl, int64_t tgt)
    {
        LowerCtx c;
        c.batch = batch;
        c.seqLen = sl;
        c.tgtLen = tgt;
        c.out = &out;
        return c;
    }

    uint64_t
    launches() const
    {
        uint64_t total = 0;
        for (const auto &k : out)
            total += k.repeat;
        return total;
    }

    double
    flops() const
    {
        double total = 0.0;
        for (const auto &k : out)
            total += k.flops * static_cast<double>(k.repeat);
        return total;
    }
};

TEST(LowerCtx, StepsFollowAxis)
{
    LowerFixture f;
    LowerCtx c = f.ctx(64, 100, 95);
    EXPECT_EQ(c.steps(TimeAxis::Source), 100);
    EXPECT_EQ(c.steps(TimeAxis::Target), 95);
    EXPECT_EQ(c.steps(TimeAxis::Fixed, 7), 7);
}

TEST(Recurrent, UnrollScalesWithSeqLen)
{
    LowerFixture f;
    RecurrentLayer lstm("l", CellType::Lstm, 1024, 1024, false,
                        TimeAxis::Source);
    LowerCtx c10 = f.ctx(64, 10, 10);
    lstm.lowerForward(c10);
    uint64_t launches_10 = f.launches();

    LowerFixture g;
    LowerCtx c20 = g.ctx(64, 20, 20);
    lstm.lowerForward(c20);
    uint64_t launches_20 = g.launches();

    // Per-step kernels double; the fused input GEMM stays at 1.
    EXPECT_EQ(launches_20 - launches_10, 2u * 10u);
}

TEST(Recurrent, BidirectionalDoublesWork)
{
    LowerFixture uni, bi;
    RecurrentLayer u("u", CellType::Gru, 800, 800, false,
                     TimeAxis::Source);
    RecurrentLayer b("b", CellType::Gru, 800, 800, true,
                     TimeAxis::Source);
    LowerCtx cu = uni.ctx(64, 50, 50);
    u.lowerForward(cu);
    LowerCtx cb = bi.ctx(64, 50, 50);
    b.lowerForward(cb);
    EXPECT_NEAR(bi.flops() / uni.flops(), 2.0, 0.05);
    EXPECT_EQ(b.outputDim(), 1600);
    EXPECT_EQ(u.outputDim(), 800);
}

TEST(Recurrent, LstmVsGruGateRatio)
{
    LowerFixture l, g;
    RecurrentLayer lstm("l", CellType::Lstm, 512, 512, false,
                        TimeAxis::Source);
    RecurrentLayer gru("g", CellType::Gru, 512, 512, false,
                       TimeAxis::Source);
    LowerCtx cl = l.ctx(64, 30, 30);
    lstm.lowerForward(cl);
    LowerCtx cg = g.ctx(64, 30, 30);
    gru.lowerForward(cg);
    EXPECT_NEAR(l.flops() / g.flops(), 4.0 / 3.0, 0.05);
    EXPECT_EQ(gateCount(CellType::Lstm), 4);
    EXPECT_EQ(gateCount(CellType::Gru), 3);
}

TEST(Recurrent, ParamCount)
{
    RecurrentLayer lstm("l", CellType::Lstm, 1024, 1024, false,
                        TimeAxis::Source);
    EXPECT_EQ(lstm.paramCount(), 4ull * 1024 * (1024 + 1024 + 1));
}

TEST(FullyConnected, TableOneForwardDims)
{
    // GNMT classifier, Table I GEMM-a: M=36549, K=1024, N=64*T.
    LowerFixture f;
    FullyConnectedLayer fc("classifier", 1024, 36549, TimeAxis::Target);
    LowerCtx c = f.ctx(64, 99, 94);
    fc.lowerForward(c);
    ASSERT_EQ(f.out.size(), 1u);
    EXPECT_EQ(f.out[0].gemmM, 36549);
    EXPECT_EQ(f.out[0].gemmK, 1024);
    EXPECT_EQ(f.out[0].gemmN, 64 * 94); // 6016 as in Table I
}

TEST(FullyConnected, TableOneBackwardDims)
{
    // Table I GEMM-b: M=1024, K=36549, N=64*T.
    LowerFixture f;
    FullyConnectedLayer fc("classifier", 1024, 36549, TimeAxis::Target);
    LowerCtx c = f.ctx(64, 99, 94);
    fc.lowerBackward(c);
    ASSERT_EQ(f.out.size(), 2u);
    EXPECT_EQ(f.out[0].gemmM, 1024);
    EXPECT_EQ(f.out[0].gemmK, 36549);
    EXPECT_EQ(f.out[0].gemmN, 6016);
}

TEST(Conv2d, Ds2ShapePipeline)
{
    Conv2dLayer conv1("conv1", 1, 32, 11, 41, 2, 2, 161,
                      TimeAxis::Source, 2);
    EXPECT_EQ(conv1.outWidth(), 81);
    LowerFixture f;
    LowerCtx c = f.ctx(64, 200, 200);
    EXPECT_EQ(conv1.outHeight(c), 200); // 2*SL strided by 2 -> SL

    Conv2dLayer conv2("conv2", 32, 32, 11, 21, 1, 2, 81,
                      TimeAxis::Source, 1);
    EXPECT_EQ(conv2.outWidth(), 41);
}

TEST(Conv2d, FixedAxisIgnoresSeqLen)
{
    Conv2dLayer conv("c", 3, 64, 3, 3, 1, 1, 32, TimeAxis::Fixed, 1,
                     32);
    LowerFixture a, b;
    LowerCtx ca = a.ctx(64, 10, 10);
    conv.lowerForward(ca);
    LowerCtx cb = b.ctx(64, 500, 500);
    conv.lowerForward(cb);
    EXPECT_DOUBLE_EQ(a.flops(), b.flops());
}

TEST(Attention, CostScalesWithBothLengths)
{
    AttentionLayer attn("a", 1024, TimeAxis::Target);
    LowerFixture f1, f2, f3;
    LowerCtx c1 = f1.ctx(64, 50, 50);
    attn.lowerForward(c1);
    LowerCtx c2 = f2.ctx(64, 100, 50);
    attn.lowerForward(c2);
    LowerCtx c3 = f3.ctx(64, 50, 100);
    attn.lowerForward(c3);
    EXPECT_GT(f2.flops(), f1.flops()); // longer keys
    EXPECT_GT(f3.flops(), f1.flops()); // more queries
}

TEST(Embedding, LookupsFollowAxis)
{
    EmbeddingLayer src("s", 36549, 1024, TimeAxis::Source);
    EmbeddingLayer tgt("t", 36549, 1024, TimeAxis::Target);
    LowerFixture fs, ft;
    LowerCtx cs = fs.ctx(64, 100, 10);
    src.lowerForward(cs);
    LowerCtx ct = ft.ctx(64, 100, 10);
    tgt.lowerForward(ct);
    EXPECT_GT(fs.out[0].bytesOut, ft.out[0].bytesOut);
    EXPECT_EQ(src.paramCount(), 36549ull * 1024ull);
}

TEST(SoftmaxLoss, BackwardTouchesFullProbMatrix)
{
    SoftmaxLossLayer loss("l", 36549, TimeAxis::Target);
    LowerFixture f;
    LowerCtx c = f.ctx(64, 20, 19);
    loss.lowerBackward(c);
    ASSERT_EQ(f.out.size(), 1u);
    EXPECT_DOUBLE_EQ(f.out[0].flops, 64.0 * 19.0 * 36549.0);
    EXPECT_EQ(loss.paramCount(), 0u);
}

TEST(BatchNorm, ElemsScaleWithSeqLen)
{
    BatchNormLayer bn("bn", 1312, 32, TimeAxis::Source);
    LowerFixture a, b;
    LowerCtx ca = a.ctx(64, 100, 100);
    bn.lowerForward(ca);
    LowerCtx cb = b.ctx(64, 200, 200);
    bn.lowerForward(cb);
    EXPECT_NEAR(b.flops() / a.flops(), 2.0, 1e-9);
}

TEST(LayerDeath, RejectsBadConstruction)
{
    EXPECT_DEATH(RecurrentLayer("x", CellType::Lstm, 0, 10, false,
                                TimeAxis::Source), "bad dimensions");
    EXPECT_DEATH(EmbeddingLayer("x", 0, 10, TimeAxis::Source),
                 "bad dimensions");
}

} // anonymous namespace
} // namespace nn
} // namespace seqpoint
