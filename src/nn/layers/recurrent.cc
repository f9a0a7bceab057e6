/**
 * @file
 * Recurrent layer lowering.
 */

#include "nn/layers/recurrent.hh"

#include "common/logging.hh"
#include "common/strutil.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

int64_t
gateCount(CellType type)
{
    return type == CellType::Lstm ? 4 : 3;
}

RecurrentLayer::RecurrentLayer(std::string name, CellType cell_type,
                               int64_t input_dim, int64_t hidden_dim,
                               bool bidir, TimeAxis time_axis)
    : Layer(std::move(name)), type(cell_type), inputDim(input_dim),
      hidden(hidden_dim), bidirectional(bidir), axis(time_axis)
{
    fatal_if(input_dim <= 0 || hidden_dim <= 0,
             "RecurrentLayer: bad dimensions");
    const char *cell = cellName();
    auto stem = [cell](const char *op) {
        return sim::KernelStem(csprintf("%s_%s", cell, op));
    };
    stems = Stems{stem("wx_fwd"), stem("wh_fwd"), stem("cell_fwd"),
                  stem("cell_bwd"), stem("wh_bwd_data"),
                  stem("wx_bwd_data"), stem("wx_bwd_wgrad"),
                  stem("wh_bwd_wgrad"), stem("concat_dirs")};
}

int64_t
RecurrentLayer::outputDim() const
{
    return bidirectional ? 2 * hidden : hidden;
}

const char *
RecurrentLayer::cellName() const
{
    return type == CellType::Lstm ? "lstm" : "gru";
}

void
RecurrentLayer::lowerDirectionForward(LowerCtx &ctx, int64_t steps) const
{
    int64_t gates = gateCount(type);
    int64_t batch = ctx.batch;

    // Input-side GEMM batched over all time steps:
    // [gates*H, inputDim] x [inputDim, B*T].
    ctx.emit(makeGemm(stems.wxFwd, gates * hidden, batch * steps, inputDim));

    // Recurrent GEMM, once per step: [gates*H, H] x [H, B].
    sim::KernelDesc rec = makeGemm(stems.whFwd, gates * hidden, batch, hidden);
    rec.repeat = static_cast<uint64_t>(steps);
    ctx.emit(std::move(rec));

    // Fused gate math, once per step: sigmoids/tanh over B x gates*H.
    sim::KernelDesc gate = sim::makeElementwise(stems.cellFwd,
        static_cast<double>(batch * gates * hidden), 8.0, 3.0, 2.0);
    gate.repeat = static_cast<uint64_t>(steps);
    ctx.emit(std::move(gate));
}

void
RecurrentLayer::lowerDirectionBackward(LowerCtx &ctx, int64_t steps) const
{
    int64_t gates = gateCount(type);
    int64_t batch = ctx.batch;

    // Per-step gate backward (more operands than forward).
    sim::KernelDesc gate = sim::makeElementwise(stems.cellBwd,
        static_cast<double>(batch * gates * hidden), 10.0, 5.0, 3.0);
    gate.repeat = static_cast<uint64_t>(steps);
    ctx.emit(std::move(gate));

    // Per-step recurrent data gradient: [H, gates*H] x [gates*H, B].
    sim::KernelDesc rec = makeGemm(stems.whBwdData,
                                   hidden, batch, gates * hidden);
    rec.repeat = static_cast<uint64_t>(steps);
    ctx.emit(std::move(rec));

    // Input data gradient batched over steps:
    // [inputDim, gates*H] x [gates*H, B*T].
    ctx.emit(makeGemm(stems.wxBwdData, inputDim,
                      batch * steps, gates * hidden));

    // Weight gradients, reduced over B*T:
    // dWx: [gates*H, B*T] x [B*T, inputDim].
    ctx.emit(makeGemm(stems.wxBwdWgrad, gates * hidden,
                      inputDim, batch * steps));
    // dWh: [gates*H, B*T] x [B*T, H].
    ctx.emit(makeGemm(stems.whBwdWgrad, gates * hidden,
                      hidden, batch * steps));
}

void
RecurrentLayer::lowerForward(LowerCtx &ctx) const
{
    int64_t steps = ctx.steps(axis);
    int64_t dirs = bidirectional ? 2 : 1;
    for (int64_t d = 0; d < dirs; ++d)
        lowerDirectionForward(ctx, steps);
    if (bidirectional) {
        // Concatenate the two directions' outputs.
        ctx.emit(sim::makeMemcpy(stems.concatDirs,
            static_cast<double>(ctx.batch) *
            static_cast<double>(steps) *
            static_cast<double>(2 * hidden) * 4.0));
    }
}

void
RecurrentLayer::lowerBackward(LowerCtx &ctx) const
{
    int64_t steps = ctx.steps(axis);
    int64_t dirs = bidirectional ? 2 : 1;
    for (int64_t d = 0; d < dirs; ++d)
        lowerDirectionBackward(ctx, steps);
}

uint64_t
RecurrentLayer::paramCount() const
{
    uint64_t gates = static_cast<uint64_t>(gateCount(type));
    uint64_t per_dir = gates * static_cast<uint64_t>(hidden) *
        (static_cast<uint64_t>(inputDim) + static_cast<uint64_t>(hidden)
         + 1);
    return bidirectional ? 2 * per_dir : per_dir;
}

} // namespace nn
} // namespace seqpoint
