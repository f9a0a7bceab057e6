/**
 * @file
 * Datasets as sequence-length collections, with the train/eval split
 * the paper's evaluation-phase accounting needs.
 */

#ifndef SEQPOINT_DATA_DATASET_HH
#define SEQPOINT_DATA_DATASET_HH

#include <cstdint>
#include <string>
#include <vector>

namespace seqpoint {
namespace data {

/**
 * A dataset: named collections of per-sample sequence lengths for the
 * training and evaluation splits.
 */
struct Dataset {
    std::string name;                 ///< Dataset name.
    std::vector<int64_t> trainLens;   ///< Training-sample SLs.
    std::vector<int64_t> evalLens;    ///< Evaluation-split SLs.

    /** @return Number of training samples. */
    size_t trainSize() const { return trainLens.size(); }
};

/**
 * Synthetic LibriSpeech-100h stand-in for DS2 training.
 *
 * Sized so one epoch at batch 64 is a few hundred iterations, as in
 * the paper's setup.
 *
 * @param seed Generator seed (content is deterministic per seed).
 */
Dataset synthLibriSpeech100(uint64_t seed);

/**
 * Synthetic IWSLT'15 stand-in for GNMT training.
 *
 * @param seed Generator seed.
 */
Dataset synthIwslt15(uint64_t seed);

/**
 * Synthetic WMT'16 stand-in (larger corpus, similar SL range) for the
 * dataset-scaling discussion.
 *
 * @param seed Generator seed.
 */
Dataset synthWmt16(uint64_t seed);

} // namespace data
} // namespace seqpoint

#endif // SEQPOINT_DATA_DATASET_HH
