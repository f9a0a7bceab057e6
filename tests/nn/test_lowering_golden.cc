/**
 * @file
 * Golden lowering digests. Each architecture -- the four built-in
 * models plus 24 variants drawn by a seeded NEAT-style generator --
 * pins one FNV-1a digest over:
 *
 *   - the ordered (name, repeat, timing-signature bits) of its
 *     training and inference lowering at three sequence lengths, and
 *   - the bits of its training and inference IterationProfile at the
 *     same three lengths (Measured autotune on Table II config 1).
 *
 * Any change to kernel naming, lowering order, the traffic model,
 * autotune choices or the timing model's aggregates moves a digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "models/cnn.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "models/transformer.hh"
#include "nn/autotune.hh"
#include "nn/layers/attention.hh"
#include "nn/layers/embedding.hh"
#include "nn/layers/fully_connected.hh"
#include "nn/layers/recurrent.hh"
#include "nn/layers/softmax_loss.hh"
#include "nn/model.hh"
#include "profiler/profiler.hh"
#include "sim/gpu.hh"
#include "sim/timing_cache.hh"

namespace seqpoint {
namespace nn {
namespace {

constexpr unsigned kBatch = 16;
constexpr int64_t kSls[] = {3, 17, 40};

/**
 * A NEAT-style genome over the existing layer types: evolution starts
 * from a minimal one-layer recurrent encoder and grows structure by
 * mutation (Seq103's search space restricted to what nn/layers can
 * express).
 */
struct Genome {
    unsigned encLayers = 1;  ///< Encoder recurrent layers.
    unsigned decLayers = 0;  ///< Decoder recurrent layers (0: none).
    int64_t hidden = 64;     ///< Hidden size per direction.
    CellType cell = CellType::Lstm; ///< Recurrent cell flavour.
    bool bidirectional = false; ///< First encoder layer bidirectional.
    bool attention = false;  ///< Attention between encoder and decoder.
    int64_t vocab = 1000;    ///< Embedding / classifier vocabulary.

    /** Field-wise equality (the generator redraws repeats). */
    bool operator==(const Genome &other) const = default;
};

/** Apply one random structural or parametric mutation. */
void
mutate(Genome &g, Rng &rng)
{
    switch (rng.uniformInt(0, 6)) {
      case 0:
        if (g.encLayers < 4)
            ++g.encLayers;
        break;
      case 1:
        if (g.decLayers < 3)
            ++g.decLayers;
        break;
      case 2:
        g.hidden = 32 * rng.uniformInt(1, 8);
        break;
      case 3:
        g.cell = g.cell == CellType::Lstm ? CellType::Gru : CellType::Lstm;
        break;
      case 4:
        g.bidirectional = !g.bidirectional;
        break;
      case 5:
        g.attention = !g.attention;
        break;
      default:
        g.vocab = 500 * rng.uniformInt(1, 12);
        break;
    }
}

/**
 * The 24 distinct variants of the seeded generator: each grows from
 * the minimal genome by 1-8 mutations; repeats are redrawn.
 */
const std::vector<Genome> &
variants()
{
    static const std::vector<Genome> drawn = [] {
        Rng rng(0x5e9103ULL);
        std::vector<Genome> out;
        while (out.size() < 24) {
            Genome g;
            int64_t mutations = rng.uniformInt(1, 8);
            for (int64_t i = 0; i < mutations; ++i)
                mutate(g, rng);
            if (std::find(out.begin(), out.end(), g) == out.end())
                out.push_back(g);
        }
        return out;
    }();
    return drawn;
}

/** Build the network a genome describes. */
Model
buildGenome(const Genome &g, unsigned index)
{
    Model m(csprintf("variant_%u", index));
    bool seq2seq = g.decLayers > 0 || g.attention;
    m.setTargetLenRatio(seq2seq ? 0.9 : 1.0);

    m.add(std::make_unique<EmbeddingLayer>("enc_embed", g.vocab,
                                           g.hidden, TimeAxis::Source));
    int64_t in_dim = g.hidden;
    for (unsigned i = 0; i < g.encLayers; ++i) {
        bool bidir = g.bidirectional && i == 0;
        auto layer = std::make_unique<RecurrentLayer>(
            csprintf("enc_rnn_%u", i), g.cell, in_dim, g.hidden, bidir,
            TimeAxis::Source);
        in_dim = layer->outputDim();
        m.add(std::move(layer));
    }

    TimeAxis out_axis = TimeAxis::Source;
    if (seq2seq) {
        out_axis = TimeAxis::Target;
        m.add(std::make_unique<EmbeddingLayer>("dec_embed", g.vocab,
                                               g.hidden, TimeAxis::Target));
        if (g.attention) {
            m.add(std::make_unique<AttentionLayer>("attention", g.hidden,
                                                   TimeAxis::Target));
        }
        in_dim = g.attention ? 2 * g.hidden : g.hidden;
        for (unsigned i = 0; i < g.decLayers; ++i) {
            m.add(std::make_unique<RecurrentLayer>(
                csprintf("dec_rnn_%u", i), g.cell, in_dim, g.hidden,
                false, TimeAxis::Target));
            in_dim = g.hidden;
        }
    }

    m.add(std::make_unique<FullyConnectedLayer>("classifier", in_dim,
                                                g.vocab, out_axis));
    m.add(std::make_unique<SoftmaxLossLayer>("loss", g.vocab, out_axis));
    return m;
}

/** Append one lowered stream: name, repeat and signature bits. */
void
hashStream(ByteWriter &w, const std::vector<sim::KernelDesc> &ks)
{
    w.u64(ks.size());
    for (const sim::KernelDesc &k : ks) {
        w.str(k.name());
        w.u64(k.repeat);
        sim::KernelSignature s = sim::kernelSignature(k);
        w.u32(static_cast<uint32_t>(s.klass));
        for (double d : {s.flops, s.bytesIn, s.bytesOut, s.workingSetL1,
                         s.workingSetL2, s.workItems, s.effScale,
                         s.reuseL1, s.reuseL2})
            w.f64(d);
        w.i64(s.gemmM);
        w.i64(s.gemmN);
        w.i64(s.gemmK);
    }
}

/** The pinned digest of one model (see the file comment). */
uint64_t
loweringDigest(const Model &model)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    ByteWriter w;
    for (int64_t sl : kSls) {
        hashStream(w, model.lowerIteration(kBatch, sl, tuner));
        hashStream(w, model.lowerInference(kBatch, sl, tuner));
    }
    prof::Profiler profiler(gpu, model, tuner, kBatch);
    for (int64_t sl : kSls) {
        prof::encodeIterationProfile(w, profiler.profileIteration(sl));
        prof::encodeIterationProfile(w, profiler.profileInference(sl));
    }
    return fnv1a64(w.data());
}

std::string
hex(uint64_t v)
{
    return csprintf("0x%016llx", static_cast<unsigned long long>(v));
}

TEST(LoweringGolden, BuiltInModels)
{
    struct Case {
        const char *name;
        Model model;
        uint64_t digest;
    };
    Case cases[] = {
        {"GNMT", models::buildGnmt(), 0x2a313d2e1f366d98ULL},
        {"DS2", models::buildDs2(), 0x9249303d223499dcULL},
        {"CNN", models::buildCnn(), 0x24e1525f56e79846ULL},
        {"Transformer", models::buildTransformer(),
         0xf050b5690577955cULL},
    };
    for (const Case &c : cases)
        EXPECT_EQ(hex(loweringDigest(c.model)), hex(c.digest)) << c.name;
}

TEST(LoweringGolden, GeneratedVariants)
{
    const uint64_t digests[24] = {
        0x510ec61109229e0bULL, 0x3fbb751a4517b134ULL, 0xb0f4de84eca6d9e9ULL,
        0xb3eaf02b438a4343ULL, 0x4805b8140460f861ULL, 0xa2ed540a128b86c3ULL,
        0x1f618c28772073ffULL, 0x6cc02484116766c3ULL, 0x226966d32960e0fcULL,
        0xf0c3aff45b206158ULL, 0x041c04102e331ea4ULL, 0xdc6cbddc85e7a58eULL,
        0x62d07e3a823f29ccULL, 0xcc8c320b5d8ce55aULL, 0x1e7cc6566f727ef3ULL,
        0x687b02213848d060ULL, 0xc7038cf43f589798ULL, 0xd755750d484cc075ULL,
        0xe5d537dee6f6eeebULL, 0xaf2ecee5d7ae7ff8ULL, 0x51ecd4f73528c045ULL,
        0x7bcfc21f4817821bULL, 0x27392d2aee2ca18dULL, 0xa06deb7dc50600baULL,
    };
    for (unsigned i = 0; i < 24; ++i) {
        const Genome &g = variants()[i];
        EXPECT_EQ(hex(loweringDigest(buildGenome(g, i))), hex(digests[i]))
            << "variant " << i << ": enc " << g.encLayers << " dec "
            << g.decLayers << " hidden " << g.hidden << " gru "
            << (g.cell == CellType::Gru) << " bidir " << g.bidirectional
            << " attn " << g.attention << " vocab " << g.vocab;
    }
}

TEST(LoweringGolden, GeneratorCoversTheSearchSpace)
{
    bool gru = false, lstm = false, bidir = false, uni = false;
    bool attn = false, no_attn = false, deep = false, decoder = false;
    for (const Genome &g : variants()) {
        gru |= g.cell == CellType::Gru;
        lstm |= g.cell == CellType::Lstm;
        bidir |= g.bidirectional;
        uni |= !g.bidirectional;
        attn |= g.attention;
        no_attn |= !g.attention;
        deep |= g.encLayers > 1;
        decoder |= g.decLayers > 0;
    }
    EXPECT_TRUE(gru && lstm && bidir && uni && attn && no_attn && deep &&
                decoder);
}

} // anonymous namespace
} // namespace nn
} // namespace seqpoint
