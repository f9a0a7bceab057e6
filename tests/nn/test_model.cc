/**
 * @file
 * Tests for the model graph and iteration lowering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "nn/autotune.hh"
#include "nn/layers/fully_connected.hh"
#include "nn/layers/recurrent.hh"
#include "nn/layers/softmax_loss.hh"
#include "nn/model.hh"

namespace seqpoint {
namespace nn {
namespace {

Model
tinyModel()
{
    Model m("tiny");
    m.add(std::make_unique<RecurrentLayer>("rnn", CellType::Gru, 64, 64,
                                           false, TimeAxis::Source));
    m.add(std::make_unique<FullyConnectedLayer>("fc", 64, 29,
                                                TimeAxis::Source));
    m.add(std::make_unique<SoftmaxLossLayer>("loss", 29,
                                             TimeAxis::Source));
    return m;
}

TEST(Model, ParamCountSumsLayers)
{
    Model m = tinyModel();
    uint64_t expected = 3ull * 64 * (64 + 64 + 1) // GRU
        + 64ull * 29 + 29;                        // FC
    EXPECT_EQ(m.paramCount(), expected);
    EXPECT_EQ(m.numLayers(), 3u);
}

TEST(Model, TargetLenRatio)
{
    Model m("m");
    m.setTargetLenRatio(0.95);
    EXPECT_EQ(m.targetLenFor(99), 94);
    EXPECT_EQ(m.targetLenFor(9), 9);   // 8.55 rounds to 9
    EXPECT_EQ(m.targetLenFor(1), 1);
    EXPECT_EQ(m.targetLenFor(100), 95);
}

TEST(Model, LoweringIsDeterministic)
{
    Model m = tinyModel();
    Autotuner t1(Autotuner::Mode::Heuristic);
    Autotuner t2(Autotuner::Mode::Heuristic);
    auto a = m.lowerIteration(64, 37, t1);
    auto b = m.lowerIteration(64, 37, t2);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name(), b[i].name());
        EXPECT_DOUBLE_EQ(a[i].flops, b[i].flops);
        EXPECT_EQ(a[i].repeat, b[i].repeat);
    }
}

TEST(Model, IterationIncludesOptimizerAndLoss)
{
    Model m = tinyModel();
    Autotuner tuner(Autotuner::Mode::Heuristic);
    auto kernels = m.lowerIteration(64, 10, tuner);

    std::set<std::string> names;
    for (const auto &k : kernels)
        names.insert(k.name());
    EXPECT_TRUE(names.count("opt_grad_norm"));
    EXPECT_TRUE(names.count("opt_sgd_update"));
    EXPECT_TRUE(names.count("loss_grad_bwd"));
}

TEST(Model, InferenceIsForwardOnly)
{
    Model m = tinyModel();
    Autotuner tuner(Autotuner::Mode::Heuristic);
    auto train = m.lowerIteration(64, 10, tuner);
    auto infer = m.lowerInference(64, 10, tuner);
    EXPECT_LT(infer.size(), train.size());
    for (const auto &k : infer) {
        EXPECT_EQ(k.name().find("bwd"), std::string::npos) << k.name();
        EXPECT_EQ(k.name().find("opt_"), std::string::npos) << k.name();
    }
}

TEST(Model, LongerSequenceMoreWork)
{
    Model m = tinyModel();
    Autotuner tuner(Autotuner::Mode::Heuristic);
    auto short_k = m.lowerIteration(64, 10, tuner);
    auto long_k = m.lowerIteration(64, 40, tuner);

    auto total_flops = [](const std::vector<sim::KernelDesc> &ks) {
        double f = 0.0;
        for (const auto &k : ks)
            f += k.flops * static_cast<double>(k.repeat);
        return f;
    };
    EXPECT_GT(total_flops(long_k), 2.0 * total_flops(short_k));
}

TEST(Model, ProgramsAreMemoizedOverSharedOps)
{
    Model m = tinyModel();
    const Program &a = m.program(64, 37, true);
    EXPECT_EQ(&a, &m.program(64, 37, true));
    EXPECT_NE(&a, &m.program(64, 37, false));

    // Ops are unresolved and interned once: the optimizer's updates do
    // not depend on the SL, so two SLs' programs end on the same ops.
    const Program &b = m.program(64, 12, true);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.back().op, b.back().op);
    // Op ids are dense: every step's id is below the interned count,
    // and the highest id is used.
    uint32_t max_op = 0;
    for (const Program *prog : {&a, &b, &m.program(64, 37, false)})
        for (const ProgramStep &step : *prog)
            max_op = std::max(max_op, step.op);
    EXPECT_EQ(m.opCount(), max_op + 1);
    // Ops are unresolved; GEMMs, and only GEMMs, carry a shape id.
    std::vector<uint32_t> ids;
    for (const ProgramStep &step : a)
        ids.push_back(step.op);
    std::vector<sim::KernelDesc> ops;
    std::vector<uint32_t> shapes;
    m.copyOps(ids, ops, shapes);
    ASSERT_EQ(ops.size(), ids.size());
    for (size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(ops[i].tileM, 0u);
        EXPECT_EQ(ops[i].repeat, 1u);
        EXPECT_EQ(shapes[i] != kNoShape,
                  ops[i].klass == sim::KernelClass::Gemm);
    }

    // Resolving the program reproduces the launch stream.
    Autotuner tuner(Autotuner::Mode::Heuristic);
    auto kernels = m.lowerIteration(64, 37, tuner);
    ASSERT_EQ(kernels.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(kernels[i].repeat, a[i].repeat);
}

TEST(Model, SharedHandlesServeOneMemo)
{
    Model a = tinyModel();
    Model b = a.share();
    EXPECT_EQ(b.name(), a.name());
    EXPECT_EQ(b.numLayers(), a.numLayers());
    EXPECT_EQ(&b.layer(0), &a.layer(0));

    const Program &p = a.program(64, 37, true);
    EXPECT_EQ(&p, &b.program(64, 37, true));
    EXPECT_EQ(a.opCount(), b.opCount());

    // Lowering through either handle serves the other, and the memo
    // outlives the handle that lowered into it.
    const Program *q = nullptr;
    {
        Model c = b.share();
        q = &c.program(64, 12, false);
    }
    EXPECT_EQ(q, &a.program(64, 12, false));
    EXPECT_EQ(a.opCount(), b.opCount());
}

TEST(ModelDeath, RejectsMutationOnceShared)
{
    Model m = tinyModel();
    Model handle = m.share();
    EXPECT_DEATH(m.setTargetLenRatio(0.5), "shared");
    EXPECT_DEATH(handle.add(std::make_unique<FullyConnectedLayer>(
                     "fc2", 29, 29, TimeAxis::Source)),
                 "shared");

    // Dropping every other handle does not unfreeze the network.
    Model lone = tinyModel();
    lone.share();
    EXPECT_DEATH(lone.setTargetLenRatio(0.5), "shared");
}

TEST(ModelDeath, RejectsMutationAfterLowering)
{
    Model m = tinyModel();
    m.program(64, 10, false);
    EXPECT_DEATH(m.setTargetLenRatio(0.5), "lowered");
    EXPECT_DEATH(m.add(std::make_unique<FullyConnectedLayer>(
                     "fc2", 29, 29, TimeAxis::Source)),
                 "lowered");
}

TEST(ModelDeath, RejectsBadArguments)
{
    Model m = tinyModel();
    Autotuner tuner(Autotuner::Mode::Heuristic);
    EXPECT_DEATH(m.lowerIteration(0, 10, tuner), "batch");
    EXPECT_DEATH(m.lowerIteration(64, 0, tuner), "sequence");
    EXPECT_DEATH(m.setTargetLenRatio(0.0), "ratio");
}

} // anonymous namespace
} // namespace nn
} // namespace seqpoint
