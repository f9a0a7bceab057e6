/**
 * @file
 * Batching implementation.
 */

#include "data/batching.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace seqpoint {
namespace data {

namespace {

std::vector<Batch>
chunkIntoBatches(const std::vector<int64_t> &ordered, unsigned batch_size)
{
    std::vector<Batch> batches;
    size_t full = ordered.size() / batch_size;
    batches.reserve(full);
    for (size_t b = 0; b < full; ++b) {
        int64_t max_sl = 0;
        for (unsigned i = 0; i < batch_size; ++i)
            max_sl = std::max(max_sl, ordered[b * batch_size + i]);
        batches.push_back(Batch{max_sl, batch_size});
    }
    return batches;
}

/** A run of equal lengths in ascending order: (length, count). */
using LengthRuns = std::vector<std::pair<int64_t, size_t>>;

/**
 * The ascending runs of equal lengths. Lengths spanning no more values
 * than there are samples are counted in one pass over a dense table;
 * sparser ones fall back to sorting a copy, so memory never grows
 * with the numeric range.
 */
LengthRuns
lengthRuns(const std::vector<int64_t> &lens)
{
    auto [lo_it, hi_it] = std::minmax_element(lens.begin(), lens.end());
    const int64_t lo = *lo_it;
    // Unsigned span: hi - lo may overflow int64_t.
    const uint64_t span = static_cast<uint64_t>(*hi_it) -
        static_cast<uint64_t>(lo);

    LengthRuns runs;
    if (span < lens.size()) {
        std::vector<size_t> counts(static_cast<size_t>(span) + 1, 0);
        for (int64_t len : lens)
            ++counts[static_cast<uint64_t>(len) - static_cast<uint64_t>(lo)];
        for (size_t v = 0; v < counts.size(); ++v) {
            if (counts[v] != 0)
                runs.emplace_back(static_cast<int64_t>(
                    static_cast<uint64_t>(lo) + v), counts[v]);
        }
        return runs;
    }

    std::vector<int64_t> sorted = lens;
    std::sort(sorted.begin(), sorted.end());
    for (int64_t len : sorted) {
        if (runs.empty() || runs.back().first != len)
            runs.emplace_back(len, 0);
        ++runs.back().second;
    }
    return runs;
}

/**
 * The batches of chunkIntoBatches() over the lengths in ascending
 * order, built from their runs: a sorted batch's padded length is its
 * last (largest) sample, so walking the runs finds each one without
 * materialising the sorted order.
 */
std::vector<Batch>
sortedBatches(const std::vector<int64_t> &lens, unsigned batch_size)
{
    const LengthRuns runs = lengthRuns(lens);
    std::vector<Batch> batches;
    size_t full = lens.size() / batch_size;
    batches.reserve(full);
    size_t run = 0;
    size_t seen = runs[0].second; // samples in runs [0, run]
    for (size_t b = 0; b < full; ++b) {
        size_t last = (b + 1) * batch_size; // 1-based rank of the max
        while (seen < last)
            seen += runs[++run].second;
        batches.push_back(Batch{runs[run].first, batch_size});
    }
    return batches;
}

} // anonymous namespace

std::vector<Batch>
makeEpochBatches(const std::vector<int64_t> &lens, unsigned batch_size,
                 BatchPolicy policy, Rng &rng)
{
    fatal_if(batch_size == 0, "makeEpochBatches: zero batch size");
    fatal_if(lens.size() < batch_size,
             "makeEpochBatches: fewer samples (%zu) than one batch (%u)",
             lens.size(), batch_size);

    switch (policy) {
      case BatchPolicy::Shuffled: {
        std::vector<int64_t> ordered = lens;
        rng.shuffle(ordered);
        return chunkIntoBatches(ordered, batch_size);
      }

      case BatchPolicy::SortedBySl:
        return sortedBatches(lens, batch_size);

      case BatchPolicy::Bucketed: {
        // Sorted, low-padding batches, then shuffle the batch order so
        // training still sees mixed lengths.
        std::vector<Batch> batches = sortedBatches(lens, batch_size);
        rng.shuffle(batches);
        return batches;
      }
    }
    panic("makeEpochBatches: bad policy");
    return {};
}

double
paddingOverhead(const std::vector<int64_t> &lens,
                const std::vector<Batch> &batches)
{
    double padded = 0.0;
    for (const Batch &b : batches)
        padded += static_cast<double>(b.seqLen) * b.size;
    if (padded <= 0.0)
        return 0.0;

    // Only the samples that made it into full batches count; their
    // expected content is used * mean(sample length).
    size_t used = 0;
    for (const Batch &b : batches)
        used += b.size;
    double total = std::accumulate(lens.begin(), lens.end(), 0.0);
    double mean_len = total / static_cast<double>(lens.size());
    double real = mean_len * static_cast<double>(used);
    return std::max(0.0, 1.0 - real / padded);
}

} // namespace data
} // namespace seqpoint
