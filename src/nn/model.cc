/**
 * @file
 * Model graph implementation.
 */

#include "nn/model.hh"

#include <cmath>

#include "common/logging.hh"
#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

Model::Model(std::string name)
    : name_(std::move(name))
{
    fatal_if(name_.empty(), "Model: empty name");
}

void
Model::add(std::unique_ptr<Layer> layer)
{
    panic_if(!layer, "Model::add: null layer");
    layers.push_back(std::move(layer));
}

const Layer &
Model::layer(size_t i) const
{
    panic_if(i >= layers.size(), "Model::layer: index out of range");
    return *layers[i];
}

uint64_t
Model::paramCount() const
{
    uint64_t total = 0;
    for (const auto &l : layers)
        total += l->paramCount();
    return total;
}

void
Model::setTargetLenRatio(double ratio)
{
    fatal_if(ratio <= 0.0, "Model: non-positive target length ratio");
    tgtRatio = ratio;
}

int64_t
Model::targetLenFor(int64_t src_len) const
{
    int64_t t = static_cast<int64_t>(
        std::llround(tgtRatio * static_cast<double>(src_len)));
    return t < 1 ? 1 : t;
}

LowerCtx
Model::makeCtx(unsigned batch, int64_t seq_len, Autotuner &tuner,
               std::vector<sim::KernelDesc> *out) const
{
    fatal_if(batch == 0, "Model: zero batch size");
    fatal_if(seq_len <= 0, "Model: non-positive sequence length");

    LowerCtx ctx;
    ctx.batch = batch;
    ctx.seqLen = seq_len;
    ctx.tgtLen = targetLenFor(seq_len);
    ctx.tuner = &tuner;
    ctx.out = out;
    return ctx;
}

void
Model::lowerOptimizer(LowerCtx &ctx) const
{
    // Global gradient-norm reduction over all parameters, then one
    // fused update per parameterised layer, plus the scalar
    // bookkeeping launches frameworks emit each step.
    static const sim::KernelStem grad_norm("opt_grad_norm");
    static const sim::KernelStem lr_step("opt_lr_step");
    static const sim::KernelStem sgd_update("opt_sgd_update");
    static const sim::KernelStem step_count("opt_step_count");

    uint64_t params = paramCount();
    if (params == 0)
        return;

    ctx.emit(sim::makeReduction(grad_norm, static_cast<double>(params)));
    ctx.emit(makeScalarOp(lr_step));

    for (const auto &l : layers) {
        uint64_t p = l->paramCount();
        if (p == 0)
            continue;
        // Momentum SGD: read param, grad, momentum; write param,
        // momentum.
        ctx.emit(sim::makeElementwise(sgd_update,
            static_cast<double>(p), 4.0, 3.0, 2.0));
    }
    ctx.emit(makeScalarOp(step_count));
}

std::vector<sim::KernelDesc>
Model::lowerIteration(unsigned batch, int64_t seq_len,
                      Autotuner &tuner) const
{
    std::vector<sim::KernelDesc> out;
    LowerCtx ctx = makeCtx(batch, seq_len, tuner, &out);

    for (const auto &l : layers)
        l->lowerForward(ctx);
    for (auto it = layers.rbegin(); it != layers.rend(); ++it)
        (*it)->lowerBackward(ctx);
    lowerOptimizer(ctx);
    return out;
}

std::vector<sim::KernelDesc>
Model::lowerInference(unsigned batch, int64_t seq_len,
                      Autotuner &tuner) const
{
    std::vector<sim::KernelDesc> out;
    LowerCtx ctx = makeCtx(batch, seq_len, tuner, &out);
    for (const auto &l : layers)
        l->lowerForward(ctx);
    return out;
}

} // namespace nn
} // namespace seqpoint
