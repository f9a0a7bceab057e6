/**
 * @file
 * Softmax loss lowering.
 */

#include "nn/layers/softmax_loss.hh"

#include "common/logging.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

SoftmaxLossLayer::SoftmaxLossLayer(std::string name, int64_t class_count,
                                   TimeAxis time_axis, int64_t fixed_steps)
    : Layer(std::move(name)), classes(class_count), axis(time_axis),
      fixedSteps(fixed_steps)
{
    fatal_if(class_count <= 0, "SoftmaxLossLayer: bad class count");
}

void
SoftmaxLossLayer::lowerForward(LowerCtx &ctx) const
{
    static const sim::KernelStem softmax("loss_softmax_fwd");
    static const sim::KernelStem nll("loss_nll_reduce");

    int64_t rows = static_cast<int64_t>(ctx.batch) *
        ctx.steps(axis, fixedSteps);
    ctx.emit(makeSoftmax(softmax, rows, classes));
    ctx.emit(sim::makeReduction(nll, static_cast<double>(rows)));
}

void
SoftmaxLossLayer::lowerBackward(LowerCtx &ctx) const
{
    static const sim::KernelStem grad("loss_grad_bwd");

    int64_t rows = static_cast<int64_t>(ctx.batch) *
        ctx.steps(axis, fixedSteps);
    // dLogits = p - onehot: one pass over the full probability matrix.
    ctx.emit(sim::makeElementwise(grad,
        static_cast<double>(rows) * static_cast<double>(classes),
        1.0, 1.0, 1.0));
}

uint64_t
SoftmaxLossLayer::paramCount() const
{
    return 0;
}

} // namespace nn
} // namespace seqpoint
