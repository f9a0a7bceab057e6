/**
 * @file
 * Recurrent layers (LSTM and GRU, optionally bidirectional), lowered
 * the way MIOpen/cuDNN execute them: the input-side GEMM of all time
 * steps is batched into one large GEMM, while the recurrent GEMM and
 * the fused gate kernel run once per time step. Per-step kernels are
 * emitted with a repeat count equal to the unroll factor, which is
 * exactly the paper's source of iteration heterogeneity.
 */

#ifndef SEQPOINT_NN_LAYERS_RECURRENT_HH
#define SEQPOINT_NN_LAYERS_RECURRENT_HH

#include "nn/layer.hh"

namespace seqpoint {
namespace nn {

/** Recurrent cell flavour. */
enum class CellType {
    Lstm, ///< 4 gates.
    Gru,  ///< 3 gates.
};

/** @return Gate count for a cell type (4 for LSTM, 3 for GRU). */
int64_t gateCount(CellType type);

/** LSTM/GRU layer, uni- or bidirectional. */
class RecurrentLayer : public Layer
{
  public:
    /**
     * Construct a recurrent layer.
     *
     * @param name Layer instance name.
     * @param type Cell flavour.
     * @param input_dim Per-step input feature count.
     * @param hidden Hidden state size per direction.
     * @param bidirectional Run both directions (doubles the work and
     *                      the output width).
     * @param axis Sequence axis the unroll scales with.
     */
    RecurrentLayer(std::string name, CellType type, int64_t input_dim,
                   int64_t hidden, bool bidirectional, TimeAxis axis);

    void lowerForward(LowerCtx &ctx) const override;
    void lowerBackward(LowerCtx &ctx) const override;
    uint64_t paramCount() const override;

    /** @return Output feature width (hidden, x2 if bidirectional). */
    int64_t outputDim() const;

  private:
    CellType type;
    int64_t inputDim;
    int64_t hidden;
    bool bidirectional;
    TimeAxis axis;

    /** Kernel-name stems, "<cell>_<op>", interned at construction. */
    struct Stems {
        sim::KernelStem wxFwd;      ///< "<cell>_wx_fwd".
        sim::KernelStem whFwd;      ///< "<cell>_wh_fwd".
        sim::KernelStem cellFwd;    ///< "<cell>_cell_fwd".
        sim::KernelStem cellBwd;    ///< "<cell>_cell_bwd".
        sim::KernelStem whBwdData;  ///< "<cell>_wh_bwd_data".
        sim::KernelStem wxBwdData;  ///< "<cell>_wx_bwd_data".
        sim::KernelStem wxBwdWgrad; ///< "<cell>_wx_bwd_wgrad".
        sim::KernelStem whBwdWgrad; ///< "<cell>_wh_bwd_wgrad".
        sim::KernelStem concatDirs; ///< "<cell>_concat_dirs".
    };
    Stems stems;

    /** Emit one direction's forward kernels. */
    void lowerDirectionForward(LowerCtx &ctx, int64_t steps) const;

    /** Emit one direction's backward kernels. */
    void lowerDirectionBackward(LowerCtx &ctx, int64_t steps) const;

    const char *cellName() const;
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_LAYERS_RECURRENT_HH
