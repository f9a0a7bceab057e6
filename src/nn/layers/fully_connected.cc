/**
 * @file
 * Fully-connected layer lowering.
 *
 * Forward:      C[out, B*T] = W[out, in] x X[in, B*T]   (Table I GEMM-a)
 * Backward dX:  dX[in, B*T] = W^T[in, out] x dY[out, B*T] (GEMM-b)
 * Backward dW:  dW[out, in] = dY[out, B*T] x X^T[B*T, in]
 */

#include "nn/layers/fully_connected.hh"

#include "common/logging.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

FullyConnectedLayer::FullyConnectedLayer(std::string name, int64_t in_dim,
                                         int64_t out_dim, TimeAxis time_axis,
                                         int64_t fixed_steps)
    : Layer(std::move(name)), inDim(in_dim), outDim(out_dim), axis(time_axis),
      fixedSteps(fixed_steps), fwdStem(opStem("fwd")),
      bwdDataStem(opStem("bwd_data")), bwdWgradStem(opStem("bwd_wgrad"))
{
    fatal_if(in_dim <= 0 || out_dim <= 0,
             "FullyConnectedLayer: bad dimensions");
}

void
FullyConnectedLayer::lowerForward(LowerCtx &ctx) const
{
    int64_t n = static_cast<int64_t>(ctx.batch) *
        ctx.steps(axis, fixedSteps);
    ctx.emit(makeGemm(fwdStem, outDim, n, inDim));
}

void
FullyConnectedLayer::lowerBackward(LowerCtx &ctx) const
{
    int64_t n = static_cast<int64_t>(ctx.batch) *
        ctx.steps(axis, fixedSteps);
    ctx.emit(makeGemm(bwdDataStem, inDim, n, outDim));
    ctx.emit(makeGemm(bwdWgradStem, outDim, inDim, n));
}

uint64_t
FullyConnectedLayer::paramCount() const
{
    return static_cast<uint64_t>(inDim) * static_cast<uint64_t>(outDim) +
        static_cast<uint64_t>(outDim);
}

} // namespace nn
} // namespace seqpoint
