/**
 * @file
 * Embedding layer lowering.
 */

#include "nn/layers/embedding.hh"

#include "common/logging.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

EmbeddingLayer::EmbeddingLayer(std::string name, int64_t vocab_size,
                               int64_t embed_dim, TimeAxis time_axis)
    : Layer(std::move(name)), vocab(vocab_size), dim(embed_dim),
      axis(time_axis)
{
    fatal_if(vocab_size <= 0 || embed_dim <= 0,
             "EmbeddingLayer: bad dimensions");
}

void
EmbeddingLayer::lowerForward(LowerCtx &ctx) const
{
    static const sim::KernelStem stem("embed_gather_fwd");

    int64_t lookups = static_cast<int64_t>(ctx.batch) * ctx.steps(axis);
    ctx.emit(makeEmbeddingGather(stem, lookups, dim, vocab));
}

void
EmbeddingLayer::lowerBackward(LowerCtx &ctx) const
{
    static const sim::KernelStem stem("embed_scatter_bwd");

    int64_t lookups = static_cast<int64_t>(ctx.batch) * ctx.steps(axis);
    // Scatter-add of gradients into the table: same traffic shape as
    // the gather plus a read-modify-write on the table rows.
    sim::KernelDesc kd = makeEmbeddingGather(stem, lookups, dim, vocab);
    kd.bytesOut *= 2.0; // read-modify-write
    ctx.emit(std::move(kd));
}

uint64_t
EmbeddingLayer::paramCount() const
{
    return static_cast<uint64_t>(vocab) * static_cast<uint64_t>(dim);
}

} // namespace nn
} // namespace seqpoint
