/**
 * @file
 * Tests for the dataset synthesizers and batching policies.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats_math.hh"
#include "data/batching.hh"
#include "data/dataset.hh"
#include "data/distributions.hh"

namespace seqpoint {
namespace data {
namespace {

TEST(Distributions, LibrispeechInRangeAndSkewed)
{
    Rng rng(5);
    auto lens = librispeechLengths(rng, 20000);
    std::vector<double> d(lens.begin(), lens.end());
    EXPECT_GE(minOf(d), 50.0);
    EXPECT_LE(maxOf(d), 450.0);
    // Right-skewed: mean above median.
    EXPECT_GT(mean(d), percentile(d, 50.0));
}

TEST(Distributions, IwsltInRange)
{
    Rng rng(5);
    auto lens = iwsltLengths(rng, 20000);
    std::vector<double> d(lens.begin(), lens.end());
    EXPECT_GE(minOf(d), 4.0);
    EXPECT_LE(maxOf(d), 220.0);
    EXPECT_NEAR(percentile(d, 50.0), 25.0, 6.0);
}

TEST(Distributions, NoEdgePileup)
{
    // Rejection sampling must not create spikes at the range maximum.
    Rng rng(5);
    auto lens = librispeechLengths(rng, 50000);
    size_t at_max = static_cast<size_t>(
        std::count(lens.begin(), lens.end(), int64_t{450}));
    EXPECT_LT(at_max, 50u);
}

TEST(Distributions, DeterministicPerSeed)
{
    Rng a(9), b(9);
    EXPECT_EQ(iwsltLengths(a, 100), iwsltLengths(b, 100));
}

TEST(Dataset, FactoriesProduceDocumentedSizes)
{
    Dataset ls = synthLibriSpeech100(23);
    EXPECT_EQ(ls.trainSize(), 36480u);
    EXPECT_EQ(ls.evalLens.size(), 2703u);

    Dataset iw = synthIwslt15(23);
    EXPECT_EQ(iw.trainSize(), 38400u);
    EXPECT_EQ(iw.evalLens.size(), 1553u);

    Dataset wmt = synthWmt16(23);
    EXPECT_GT(wmt.trainSize(), 5 * iw.trainSize());
}

TEST(Dataset, Helpers)
{
    Dataset ds;
    ds.trainLens = {5, 3, 9, 3, 7};
    EXPECT_EQ(ds.minLen(), 3);
    EXPECT_EQ(ds.maxLen(), 9);
    EXPECT_EQ(ds.uniqueLenCount(), 4u);
}

TEST(Batching, PadsToMaxAndKeepsBatchSize)
{
    Rng rng(1);
    std::vector<int64_t> lens{1, 9, 2, 8, 3, 7, 4, 6};
    auto batches = makeEpochBatches(lens, 4, BatchPolicy::SortedBySl,
                                    rng);
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_EQ(batches[0].seqLen, 4); // sorted: 1,2,3,4
    EXPECT_EQ(batches[1].seqLen, 9); // sorted: 6,7,8,9
    for (const auto &b : batches)
        EXPECT_EQ(b.size, 4u);
}

TEST(Batching, DropsTrailingPartialBatch)
{
    Rng rng(1);
    std::vector<int64_t> lens(10, 5);
    auto batches = makeEpochBatches(lens, 4, BatchPolicy::Shuffled, rng);
    EXPECT_EQ(batches.size(), 2u);
}

TEST(Batching, SortedIsMonotone)
{
    Rng rng(3);
    auto lens = librispeechLengths(rng, 6400);
    auto batches = makeEpochBatches(lens, 64, BatchPolicy::SortedBySl,
                                    rng);
    for (size_t i = 1; i < batches.size(); ++i)
        EXPECT_GE(batches[i].seqLen, batches[i - 1].seqLen);
}

TEST(Batching, BucketedCoversSameSlsAsSorted)
{
    Rng rng1(3), rng2(3);
    auto lens = iwsltLengths(rng1, 6400);
    auto sorted = makeEpochBatches(lens, 64, BatchPolicy::SortedBySl,
                                   rng1);
    auto bucketed = makeEpochBatches(lens, 64, BatchPolicy::Bucketed,
                                     rng2);
    auto key = [](std::vector<Batch> v) {
        std::vector<int64_t> sls;
        for (const auto &b : v)
            sls.push_back(b.seqLen);
        std::sort(sls.begin(), sls.end());
        return sls;
    };
    EXPECT_EQ(key(sorted), key(bucketed));
}

TEST(Batching, ShuffledIsPermutationSensitiveToSeed)
{
    Rng rng1(3), rng2(4);
    std::vector<int64_t> lens;
    Rng gen(7);
    for (int i = 0; i < 1280; ++i)
        lens.push_back(gen.uniformInt(1, 300));
    auto a = makeEpochBatches(lens, 64, BatchPolicy::Shuffled, rng1);
    auto b = makeEpochBatches(lens, 64, BatchPolicy::Shuffled, rng2);
    bool any_diff = false;
    for (size_t i = 0; i < a.size(); ++i)
        any_diff = any_diff || (a[i].seqLen != b[i].seqLen);
    EXPECT_TRUE(any_diff);
}

TEST(Batching, SortedMinimisesPadding)
{
    Rng rng1(3), rng2(3);
    auto lens = librispeechLengths(rng1, 12800);
    auto sorted = makeEpochBatches(lens, 64, BatchPolicy::SortedBySl,
                                   rng1);
    auto shuffled = makeEpochBatches(lens, 64, BatchPolicy::Shuffled,
                                     rng2);
    EXPECT_LT(paddingOverhead(lens, sorted),
              paddingOverhead(lens, shuffled));
}

TEST(Batching, MaxOfBatchRaisesIterationSl)
{
    // With shuffling, iteration SLs concentrate near the sample
    // distribution's upper tail (max over 64 draws).
    Rng rng1(3), rng2(3);
    auto lens = iwsltLengths(rng1, 12800);
    auto shuffled = makeEpochBatches(lens, 64, BatchPolicy::Shuffled,
                                     rng2);
    std::vector<double> samples(lens.begin(), lens.end());
    std::vector<double> iter_sls;
    for (const auto &b : shuffled)
        iter_sls.push_back(static_cast<double>(b.seqLen));
    EXPECT_GT(mean(iter_sls), percentile(samples, 90.0));
}

/**
 * The schedule as a full sort builds it: order the samples (shuffle or
 * std::sort), pad each full chunk to its longest sample, and shuffle
 * the batch order for Bucketed.
 */
std::vector<Batch>
referenceBatches(const std::vector<int64_t> &lens, unsigned batch_size,
                 BatchPolicy policy, Rng &rng)
{
    std::vector<int64_t> ordered = lens;
    if (policy == BatchPolicy::Shuffled)
        rng.shuffle(ordered);
    else
        std::sort(ordered.begin(), ordered.end());
    std::vector<Batch> batches;
    for (size_t b = 0; b + batch_size <= ordered.size(); b += batch_size) {
        batches.push_back(Batch{
            *std::max_element(ordered.begin() + b,
                              ordered.begin() + b + batch_size),
            batch_size});
    }
    if (policy == BatchPolicy::Bucketed)
        rng.shuffle(batches);
    return batches;
}

/**
 * makeEpochBatches() must return the reference's batches under every
 * policy and leave its Rng where the reference leaves it: the trainer
 * continues that Rng into the evaluation schedule.
 */
void
expectMatchesReference(const std::vector<int64_t> &lens,
                       unsigned batch_size)
{
    for (BatchPolicy policy : {BatchPolicy::Shuffled,
                               BatchPolicy::SortedBySl,
                               BatchPolicy::Bucketed}) {
        Rng rng(17, 3), ref_rng(17, 3);
        std::vector<Batch> got = makeEpochBatches(lens, batch_size,
                                                  policy, rng);
        std::vector<Batch> want = referenceBatches(lens, batch_size,
                                                   policy, ref_rng);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].seqLen, want[i].seqLen)
                << "policy " << static_cast<int>(policy) << " batch " << i;
            ASSERT_EQ(got[i].size, want[i].size);
        }
        for (int draw = 0; draw < 4; ++draw)
            EXPECT_EQ(rng.next64(), ref_rng.next64())
                << "policy " << static_cast<int>(policy);
    }
}

TEST(Batching, ScheduleMatchesSortReferenceOnSeededDatasets)
{
    Dataset iw = synthIwslt15(7);
    expectMatchesReference(iw.trainLens, 64);
    expectMatchesReference(iw.evalLens, 64);
    Dataset ls = synthLibriSpeech100(7);
    expectMatchesReference(ls.trainLens, 64);
    expectMatchesReference(ls.evalLens, 32);
}

TEST(Batching, ScheduleMatchesSortReferenceOnEqualLengths)
{
    expectMatchesReference(std::vector<int64_t>(1000, 42), 64);
    expectMatchesReference(std::vector<int64_t>(64, 1), 64);
}

TEST(Batching, ScheduleMatchesSortReferenceOnWideRanges)
{
    // Lengths spread up to ~2^40: a table indexed by length would need
    // terabytes, so this only passes when memory follows the sample
    // count, not the numeric range.
    Rng gen(11);
    std::vector<int64_t> wide;
    for (int i = 0; i < 5000; ++i)
        wide.push_back(gen.uniformInt(1, int64_t{1} << 40));
    wide.push_back(int64_t{1} << 40);
    expectMatchesReference(wide, 64);

    // Spans either side of the sample count n, where counting over a
    // dense table gives way to sorting a copy.
    for (int64_t extra : {-1, 0, 1}) {
        std::vector<int64_t> lens;
        const int64_t n = 640;
        for (int64_t i = 0; i < n; ++i)
            lens.push_back(1 + (i * 7919) % n);
        lens.back() = n + extra;
        expectMatchesReference(lens, 64);
    }
}

TEST(BatchingDeath, RejectsBadArguments)
{
    Rng rng(1);
    std::vector<int64_t> lens{1, 2, 3};
    EXPECT_DEATH(makeEpochBatches(lens, 0, BatchPolicy::Shuffled, rng),
                 "zero batch");
    EXPECT_DEATH(makeEpochBatches(lens, 8, BatchPolicy::Shuffled, rng),
                 "fewer samples");
}

} // anonymous namespace
} // namespace data
} // namespace seqpoint
