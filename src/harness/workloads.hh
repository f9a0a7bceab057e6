/**
 * @file
 * The paper's two evaluated workloads (GNMT on IWSLT'15, DS2 on
 * LibriSpeech-100h, both at batch 64) plus the CNN contrast workload,
 * packaged as ready-to-run setups for the experiment harness.
 */

#ifndef SEQPOINT_HARNESS_WORKLOADS_HH
#define SEQPOINT_HARNESS_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "data/batching.hh"
#include "data/dataset.hh"
#include "nn/model.hh"

namespace seqpoint {
namespace harness {

/** A model + dataset + batching setup ready for evaluation. */
struct Workload {
    std::string name;          ///< Workload name ("GNMT", "DS2").
    nn::Model model;           ///< The network.
    data::Dataset dataset;     ///< Sequence-length data.
    unsigned batchSize = 64;   ///< Batch size (paper: 64).
    data::BatchPolicy policy = data::BatchPolicy::Shuffled;
                               ///< Epoch iteration order.
    uint64_t seed = 23;        ///< Run seed.
    double evalCostMultiplier = 1.0; ///< Eval cost vs one forward
                                     ///< pass (beam decode > 1).

    /** Construct with a model (models are move-only). */
    Workload(std::string name, nn::Model model, data::Dataset dataset,
             data::BatchPolicy policy, uint64_t seed);
};

/**
 * Builds a fresh workload instance, e.g. for one isolated sweep cell
 * or a snapshot-registry build. Repeated calls must produce
 * equivalent workloads (same name, data, and run parameters). Their
 * models may be shares of one network, as the make*Workload
 * factories' are.
 */
using WorkloadFactory = std::function<Workload()>;

/*
 * Every make*Workload factory below hands out a share() of one
 * process-lifetime network (built on first use, thread-safely), so
 * all of its workloads, whatever their seed, share one program memo:
 * a program is a function of (network, batch, SL, phase) only. Use
 * the models::build*() functions for a fresh, unshared model.
 */

/**
 * GNMT on synthetic IWSLT'15 with the bucketed batching NMT stacks
 * use to bound padding: batches hold similar-length sentences, batch
 * order is shuffled (the paper treats GNMT's iteration order as
 * non-deterministic).
 *
 * @param seed Dataset and shuffle seed.
 */
Workload makeGnmtWorkload(uint64_t seed = 23);

/**
 * DS2 on synthetic LibriSpeech-100h with the sorted-by-SL first-epoch
 * batching artifact the paper highlights in section VI-D.
 *
 * @param seed Dataset seed.
 */
Workload makeDs2Workload(uint64_t seed = 23);

/**
 * Fixed-input CNN on an image-classification stand-in dataset (every
 * sample SL identical), for the Fig 3 homogeneity contrast.
 *
 * @param seed Dataset seed.
 */
Workload makeCnnWorkload(uint64_t seed = 23);

/**
 * Transformer on synthetic WMT'16 (paper section VII-B extension).
 *
 * @param seed Dataset seed.
 */
Workload makeTransformerWorkload(uint64_t seed = 23);

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_WORKLOADS_HH
