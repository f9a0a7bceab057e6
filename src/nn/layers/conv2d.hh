/**
 * @file
 * 2-D convolution layer lowered as implicit GEMM. For DS2 the height
 * axis is the (sequence-length dependent) time axis and the width axis
 * is the fixed frequency axis; for CNNs both axes are fixed, making
 * the layer input-independent.
 */

#ifndef SEQPOINT_NN_LAYERS_CONV2D_HH
#define SEQPOINT_NN_LAYERS_CONV2D_HH

#include "nn/layer.hh"

namespace seqpoint {
namespace nn {

/** Convolution layer (implicit-GEMM lowering). */
class Conv2dLayer : public Layer
{
  public:
    /**
     * Construct a convolution layer.
     *
     * @param name Layer instance name.
     * @param in_c Input channels.
     * @param out_c Output channels.
     * @param kh Kernel height (time axis).
     * @param kw Kernel width (frequency/spatial axis).
     * @param stride_h Stride along height.
     * @param stride_w Stride along width.
     * @param width Input width in elements (fixed).
     * @param axis Sequence axis the height scales with.
     * @param time_expansion Height = time_expansion * steps(axis)
     *                       when axis is not Fixed.
     * @param fixed_height Height when axis == Fixed.
     */
    Conv2dLayer(std::string name, int64_t in_c, int64_t out_c, int64_t kh,
                int64_t kw, int64_t stride_h, int64_t stride_w,
                int64_t width, TimeAxis axis, int64_t time_expansion = 1,
                int64_t fixed_height = 1);

    void lowerForward(LowerCtx &ctx) const override;
    void lowerBackward(LowerCtx &ctx) const override;
    uint64_t paramCount() const override;

    /** @return Output width after striding. */
    int64_t outWidth() const;

    /** @return Output height for a given iteration context. */
    int64_t outHeight(const LowerCtx &ctx) const;

    /** @return Output channels. */
    int64_t outChannels() const { return outC; }

  private:
    int64_t inC;
    int64_t outC;
    int64_t kh;
    int64_t kw;
    int64_t strideH;
    int64_t strideW;
    int64_t width;
    TimeAxis axis;
    int64_t timeExpansion;
    int64_t fixedHeight;
    sim::KernelStem fwdStem;      ///< "<name>_fwd_igemm".
    sim::KernelStem bwdDataStem;  ///< "<name>_bwd_data".
    sim::KernelStem bwdWgradStem; ///< "<name>_bwd_wgrad".

    int64_t inHeight(const LowerCtx &ctx) const;
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_LAYERS_CONV2D_HH
