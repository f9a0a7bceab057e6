/**
 * @file
 * Batch-norm layer lowering.
 */

#include "nn/layers/batchnorm.hh"

#include "common/logging.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

BatchNormLayer::BatchNormLayer(std::string name, int64_t features_per_step,
                               int64_t chans, TimeAxis time_axis,
                               int64_t fixed_steps)
    : Layer(std::move(name)), featuresPerStep(features_per_step),
      channels(chans), axis(time_axis), fixedSteps(fixed_steps),
      fwdStem(opStem("fwd")), bwdStem(opStem("bwd"))
{
    fatal_if(features_per_step <= 0 || chans <= 0,
             "BatchNormLayer: bad dimensions");
}

int64_t
BatchNormLayer::elems(const LowerCtx &ctx) const
{
    return static_cast<int64_t>(ctx.batch) * featuresPerStep *
        ctx.steps(axis, fixedSteps);
}

void
BatchNormLayer::lowerForward(LowerCtx &ctx) const
{
    ctx.emit(makeBatchNorm(fwdStem, elems(ctx)));
}

void
BatchNormLayer::lowerBackward(LowerCtx &ctx) const
{
    // Backward recomputes statistics gradients: ~1.5x forward traffic.
    sim::KernelDesc kd = makeBatchNorm(bwdStem, elems(ctx));
    kd.bytesIn *= 1.5;
    kd.flops *= 1.5;
    ctx.emit(std::move(kd));
}

uint64_t
BatchNormLayer::paramCount() const
{
    return 2 * static_cast<uint64_t>(channels);
}

} // namespace nn
} // namespace seqpoint
