/**
 * @file
 * Fully-connected (classifier/projection) layer. Processes the whole
 * sequence at once, so its GEMM N dimension is batch * steps -- the
 * layer behind Table I's per-iteration GEMM dimension differences.
 */

#ifndef SEQPOINT_NN_LAYERS_FULLY_CONNECTED_HH
#define SEQPOINT_NN_LAYERS_FULLY_CONNECTED_HH

#include "nn/layer.hh"

namespace seqpoint {
namespace nn {

/** Dense layer applied per time step across the whole sequence. */
class FullyConnectedLayer : public Layer
{
  public:
    /**
     * Construct a dense layer.
     *
     * @param name Layer instance name.
     * @param in_dim Input feature count.
     * @param out_dim Output feature count.
     * @param axis Sequence axis the GEMM N dimension scales with.
     * @param fixed_steps Step count when axis == Fixed.
     */
    FullyConnectedLayer(std::string name, int64_t in_dim, int64_t out_dim,
                        TimeAxis axis, int64_t fixed_steps = 1);

    void lowerForward(LowerCtx &ctx) const override;
    void lowerBackward(LowerCtx &ctx) const override;
    uint64_t paramCount() const override;

    /** @return Output feature count. */
    int64_t outputDim() const { return outDim; }

  private:
    int64_t inDim;
    int64_t outDim;
    TimeAxis axis;
    int64_t fixedSteps;
    sim::KernelStem fwdStem;      ///< "<name>_fwd".
    sim::KernelStem bwdDataStem;  ///< "<name>_bwd_data".
    sim::KernelStem bwdWgradStem; ///< "<name>_bwd_wgrad".
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_LAYERS_FULLY_CONNECTED_HH
