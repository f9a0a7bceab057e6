/**
 * @file
 * Workload factory implementations.
 */

#include "harness/workloads.hh"

#include "models/cnn.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "models/transformer.hh"

namespace seqpoint {
namespace harness {

Workload::Workload(std::string wl_name, nn::Model wl_model,
                   data::Dataset wl_dataset, data::BatchPolicy batch_policy,
                   uint64_t rng_seed)
    : name(std::move(wl_name)), model(std::move(wl_model)),
      dataset(std::move(wl_dataset)), policy(batch_policy), seed(rng_seed)
{
}

Workload
makeGnmtWorkload(uint64_t seed)
{
    static const nn::Model net = models::buildGnmt();
    Workload wl("GNMT", net.share(), data::synthIwslt15(seed),
                data::BatchPolicy::Bucketed, seed);
    // BLEU evaluation decodes with beam search: several times the
    // cost of a plain forward pass.
    wl.evalCostMultiplier = 3.0;
    return wl;
}

Workload
makeDs2Workload(uint64_t seed)
{
    static const nn::Model net = models::buildDs2();
    return Workload("DS2", net.share(), data::synthLibriSpeech100(seed),
                    data::BatchPolicy::SortedBySl, seed);
}

Workload
makeCnnWorkload(uint64_t seed)
{
    static const nn::Model net = models::buildCnn();
    // Fixed-size inputs: every sample reports the same "length".
    data::Dataset ds;
    ds.name = "ImageNet-32(synth)";
    ds.trainLens.assign(25600, 1);
    ds.evalLens.assign(640, 1);
    return Workload("CNN", net.share(), std::move(ds),
                    data::BatchPolicy::Shuffled, seed);
}

Workload
makeTransformerWorkload(uint64_t seed)
{
    static const nn::Model net = models::buildTransformer();
    return Workload("Transformer", net.share(), data::synthWmt16(seed),
                    data::BatchPolicy::Shuffled, seed);
}

} // namespace harness
} // namespace seqpoint
