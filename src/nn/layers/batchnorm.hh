/**
 * @file
 * Batch-normalisation layer: statistics plus normalisation over a
 * feature map whose extent may scale with the sequence axis.
 */

#ifndef SEQPOINT_NN_LAYERS_BATCHNORM_HH
#define SEQPOINT_NN_LAYERS_BATCHNORM_HH

#include "nn/layer.hh"

namespace seqpoint {
namespace nn {

/** Batch-norm layer. */
class BatchNormLayer : public Layer
{
  public:
    /**
     * Construct a batch-norm layer.
     *
     * @param name Layer instance name.
     * @param features_per_step Elements per (batch element, time step).
     * @param channels Normalised channel count (parameter size).
     * @param axis Sequence axis the extent scales with.
     * @param fixed_steps Step count when axis == Fixed.
     */
    BatchNormLayer(std::string name, int64_t features_per_step,
                   int64_t channels, TimeAxis axis,
                   int64_t fixed_steps = 1);

    void lowerForward(LowerCtx &ctx) const override;
    void lowerBackward(LowerCtx &ctx) const override;
    uint64_t paramCount() const override;

  private:
    int64_t featuresPerStep;
    int64_t channels;
    TimeAxis axis;
    int64_t fixedSteps;
    sim::KernelStem fwdStem; ///< "<name>_fwd".
    sim::KernelStem bwdStem; ///< "<name>_bwd".

    int64_t elems(const LowerCtx &ctx) const;
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_LAYERS_BATCHNORM_HH
