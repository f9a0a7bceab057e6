/**
 * @file
 * Convolution layer lowering.
 */

#include "nn/layers/conv2d.hh"

#include "common/logging.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

Conv2dLayer::Conv2dLayer(std::string name, int64_t in_c, int64_t out_c,
                         int64_t kernel_h, int64_t kernel_w, int64_t stride_h,
                         int64_t stride_w, int64_t in_width,
                         TimeAxis time_axis, int64_t time_expansion,
                         int64_t fixed_height)
    : Layer(std::move(name)), inC(in_c), outC(out_c), kh(kernel_h),
      kw(kernel_w),
      strideH(stride_h), strideW(stride_w), width(in_width), axis(time_axis),
      timeExpansion(time_expansion), fixedHeight(fixed_height),
      fwdStem(opStem("fwd_igemm")), bwdDataStem(opStem("bwd_data")),
      bwdWgradStem(opStem("bwd_wgrad"))
{
    fatal_if(in_c <= 0 || out_c <= 0 || kernel_h <= 0 || kernel_w <= 0 ||
             stride_h <= 0 || stride_w <= 0 || in_width <= 0,
             "Conv2dLayer: bad dimensions");
}

int64_t
Conv2dLayer::inHeight(const LowerCtx &ctx) const
{
    if (axis == TimeAxis::Fixed)
        return fixedHeight;
    return timeExpansion * ctx.steps(axis);
}

int64_t
Conv2dLayer::outWidth() const
{
    return convOutLen(width, kw, strideW);
}

int64_t
Conv2dLayer::outHeight(const LowerCtx &ctx) const
{
    return convOutLen(inHeight(ctx), kh, strideH);
}

void
Conv2dLayer::lowerForward(LowerCtx &ctx) const
{
    ctx.emit(makeConv2d(fwdStem, ctx.batch, inC, outC,
                        inHeight(ctx), width, kh, kw, strideH, strideW));
}

void
Conv2dLayer::lowerBackward(LowerCtx &ctx) const
{
    int64_t oh = outHeight(ctx);
    int64_t ow = outWidth();
    int64_t n = static_cast<int64_t>(ctx.batch) * oh * ow;
    int64_t k_dim = inC * kh * kw;

    // Data gradient: [K, M] x [M, N] spread back over the input.
    ctx.emit(makeGemm(bwdDataStem, k_dim, n, outC));
    // Weight gradient: [M, N] x [N, K].
    ctx.emit(makeGemm(bwdWgradStem, outC, k_dim, n));
}

uint64_t
Conv2dLayer::paramCount() const
{
    return static_cast<uint64_t>(outC) * static_cast<uint64_t>(inC) *
        static_cast<uint64_t>(kh) * static_cast<uint64_t>(kw) +
        static_cast<uint64_t>(outC);
}

} // namespace nn
} // namespace seqpoint
