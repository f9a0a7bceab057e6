/**
 * @file
 * Attention layer lowering.
 */

#include "nn/layers/attention.hh"

#include "common/logging.hh"
#include "nn/kernel_gen.hh"

namespace seqpoint {
namespace nn {

AttentionLayer::AttentionLayer(std::string name, int64_t hidden_dim,
                               TimeAxis query_axis)
    : Layer(std::move(name)), hidden(hidden_dim), queryAxis(query_axis)
{
    fatal_if(hidden_dim <= 0, "AttentionLayer: bad hidden size");
}

void
AttentionLayer::lowerForward(LowerCtx &ctx) const
{
    static const sim::KernelStem keys("attn_keys_fwd");
    static const sim::KernelStem query_fwd("attn_query_fwd");
    static const sim::KernelStem score_fwd("attn_score_fwd");
    static const sim::KernelStem softmax_fwd("attn_softmax_fwd");
    static const sim::KernelStem ctx_fwd("attn_ctx_fwd");

    int64_t batch = ctx.batch;
    int64_t t_keys = ctx.steps(TimeAxis::Source);
    int64_t t_query = ctx.steps(queryAxis);

    // Key projection over all encoder states, once per iteration:
    // [H, H] x [H, B*T_src].
    ctx.emit(makeGemm(keys, hidden, batch * t_keys, hidden));

    // Per decoder step: query projection [H, H] x [H, B].
    sim::KernelDesc query = makeGemm(query_fwd, hidden, batch, hidden);
    query.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(query));

    // Per step: scores [T_src, H] x [H, B].
    sim::KernelDesc score = makeGemm(score_fwd, t_keys, batch, hidden);
    score.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(score));

    // Per step: softmax over the T_src scores of each batch row.
    sim::KernelDesc sm = makeSoftmax(softmax_fwd, batch, t_keys);
    sm.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(sm));

    // Per step: context vector [H, T_src] x [T_src, B].
    sim::KernelDesc cvec = makeGemm(ctx_fwd, hidden, batch, t_keys);
    cvec.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(cvec));
}

void
AttentionLayer::lowerBackward(LowerCtx &ctx) const
{
    static const sim::KernelStem ctx_bwd_val("attn_ctx_bwd_val");
    static const sim::KernelStem ctx_bwd_score("attn_ctx_bwd_score");
    static const sim::KernelStem softmax_bwd("attn_softmax_bwd");
    static const sim::KernelStem query_bwd("attn_query_bwd");
    static const sim::KernelStem keys_bwd_data("attn_keys_bwd_data");
    static const sim::KernelStem keys_bwd_wgrad("attn_keys_bwd_wgrad");

    int64_t batch = ctx.batch;
    int64_t t_keys = ctx.steps(TimeAxis::Source);
    int64_t t_query = ctx.steps(queryAxis);

    // Per step: context backward produces grads for values and scores.
    sim::KernelDesc d_val = makeGemm(ctx_bwd_val, t_keys, batch, hidden);
    d_val.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(d_val));

    sim::KernelDesc d_score = makeGemm(ctx_bwd_score, hidden, batch, t_keys);
    d_score.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(d_score));

    // Per step: softmax backward (elementwise over B*T_src).
    sim::KernelDesc sm_bwd = sim::makeElementwise(softmax_bwd,
        static_cast<double>(batch * t_keys), 4.0, 2.0, 1.0);
    sm_bwd.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(sm_bwd));

    // Per step: query gradient [H, H] x [H, B].
    sim::KernelDesc d_query = makeGemm(query_bwd, hidden, batch, hidden);
    d_query.repeat = static_cast<uint64_t>(t_query);
    ctx.emit(std::move(d_query));

    // Key projection gradients, once: data + weights.
    ctx.emit(makeGemm(keys_bwd_data, hidden, batch * t_keys, hidden));
    ctx.emit(makeGemm(keys_bwd_wgrad, hidden, hidden, batch * t_keys));
}

uint64_t
AttentionLayer::paramCount() const
{
    // Key, query and output projections.
    return 3 * static_cast<uint64_t>(hidden) *
        static_cast<uint64_t>(hidden);
}

} // namespace nn
} // namespace seqpoint
