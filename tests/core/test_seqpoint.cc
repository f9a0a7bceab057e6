/**
 * @file
 * Tests for the SeqPoint selection algorithm, including parameterized
 * property sweeps over options.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.hh"
#include "common/logging.hh"
#include "core/projection.hh"
#include "core/seqpoint.hh"

namespace seqpoint {
namespace core {
namespace {

/** Synthetic epoch with near-linear runtime-vs-SL plus curvature. */
SlStats
epochStats(uint64_t seed, size_t unique, double curvature = 0.0)
{
    Rng rng(seed);
    std::vector<SlEntry> entries;
    int64_t sl = 8;
    for (size_t i = 0; i < unique; ++i) {
        sl += rng.uniformInt(1, 5);
        double x = static_cast<double>(sl);
        entries.push_back(SlEntry{
            sl, static_cast<uint64_t>(rng.uniformInt(1, 12)),
            0.05 + 0.004 * x + curvature * x * x});
    }
    return SlStats::fromEntries(std::move(entries));
}

TEST(SeqPoint, FewUniqueSlsUsesAll)
{
    SlStats s = epochStats(1, 8);
    SeqPointSet set = selectSeqPoints(s);
    EXPECT_TRUE(set.usedAllUnique);
    EXPECT_TRUE(set.converged);
    EXPECT_EQ(set.points.size(), 8u);
    EXPECT_DOUBLE_EQ(set.selfError, 0.0);
    // All-unique projection is exact.
    EXPECT_NEAR(set.projectTotal(), s.actualTotal(), 1e-9);
}

TEST(SeqPoint, ThresholdBoundaryExactlyN)
{
    SlStats s = epochStats(2, 10);
    SeqPointOptions opts;
    opts.uniqueSlThreshold = 10;
    EXPECT_TRUE(selectSeqPoints(s, opts).usedAllUnique);
    opts.uniqueSlThreshold = 9;
    EXPECT_FALSE(selectSeqPoints(s, opts).usedAllUnique);
}

TEST(SeqPoint, WeightsSumToIterationCount)
{
    SlStats s = epochStats(3, 150);
    SeqPointSet set = selectSeqPoints(s);
    EXPECT_NEAR(set.totalWeight(),
                static_cast<double>(s.totalIterations()), 1e-9);
}

TEST(SeqPoint, ConvergesWithinThreshold)
{
    SlStats s = epochStats(4, 200);
    SeqPointOptions opts;
    opts.errorThreshold = 0.01;
    SeqPointSet set = selectSeqPoints(s, opts);
    EXPECT_TRUE(set.converged);
    EXPECT_LE(set.selfError, 0.01);
    EXPECT_LT(set.points.size(), s.uniqueCount());
}

TEST(SeqPoint, RepresentativesAreRealSls)
{
    SlStats s = epochStats(5, 120);
    SeqPointSet set = selectSeqPoints(s);
    for (const SeqPointRecord &p : set.points) {
        const SlEntry *e = s.find(p.seqLen);
        ASSERT_NE(e, nullptr);
        EXPECT_DOUBLE_EQ(p.statValue, e->statValue);
    }
}

TEST(SeqPoint, PointsSortedBySl)
{
    SlStats s = epochStats(6, 90);
    SeqPointSet set = selectSeqPoints(s);
    for (size_t i = 1; i < set.points.size(); ++i)
        EXPECT_LT(set.points[i - 1].seqLen, set.points[i].seqLen);
}

TEST(SeqPoint, TighterThresholdNeverFewerPoints)
{
    SlStats s = epochStats(7, 250, 1e-5);
    SeqPointOptions loose, tight;
    loose.errorThreshold = 0.05;
    tight.errorThreshold = 0.0005;
    SeqPointSet ls = selectSeqPoints(s, loose);
    SeqPointSet ts = selectSeqPoints(s, tight);
    EXPECT_LE(ls.binsUsed, ts.binsUsed);
}

TEST(SeqPoint, MaxBinsFallbackWarnsAndReturnsBest)
{
    SlStats s = epochStats(8, 300, 1e-4);
    SeqPointOptions opts;
    opts.errorThreshold = 0.0; // unreachable in general
    opts.maxBins = 12;
    uint64_t warns_before = warnCount();
    SeqPointSet set = selectSeqPoints(s, opts);
    EXPECT_FALSE(set.converged);
    EXPECT_GT(warnCount(), warns_before);
    EXPECT_LE(set.points.size(), 12u);
}

TEST(SeqPoint, ProjectRatioIsWeightedAverage)
{
    SlStats s = epochStats(9, 60);
    SeqPointSet set = selectSeqPoints(s);
    double ratio = set.projectRatio([](int64_t) { return 3.5; });
    EXPECT_NEAR(ratio, 3.5, 1e-12);
}

TEST(SeqPoint, ProjectTotalWithExternalStat)
{
    SlStats s = epochStats(10, 60);
    SeqPointSet set = selectSeqPoints(s);
    // A 2x-slower device projects exactly 2x the stored projection.
    const SeqPointSet &cs = set;
    double doubled = cs.projectTotal([&s](int64_t sl) {
        return 2.0 * s.find(sl)->statValue;
    });
    EXPECT_NEAR(doubled, 2.0 * set.projectTotal(), 1e-9);
}

/** Parameterized properties over rep-pick policy and binning mode. */
class SeqPointPolicies
    : public testing::TestWithParam<std::tuple<RepPick, BinningMode>>
{
};

TEST_P(SeqPointPolicies, SelectionInvariantsHold)
{
    auto [pick, mode] = GetParam();
    SeqPointOptions opts;
    opts.repPick = pick;
    opts.binning = mode;
    opts.errorThreshold = 0.02;

    for (uint64_t seed : {41u, 42u, 43u, 44u}) {
        SlStats s = epochStats(seed, 180, 5e-6);
        SeqPointSet set = selectSeqPoints(s, opts);

        // Weights conserve the epoch.
        EXPECT_NEAR(set.totalWeight(),
                    static_cast<double>(s.totalIterations()), 1e-9);
        // Representatives are actual dataset SLs.
        for (const SeqPointRecord &p : set.points)
            EXPECT_NE(s.find(p.seqLen), nullptr);
        // The refinement delivered the requested accuracy (these
        // synthetic epochs are well-behaved enough to converge).
        EXPECT_TRUE(set.converged);
        EXPECT_LE(set.selfError, 0.02);
        // Far fewer points than unique SLs.
        EXPECT_LT(set.points.size(), s.uniqueCount() / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, SeqPointPolicies,
    testing::Combine(
        testing::Values(RepPick::ClosestToAvgStat,
                        RepPick::ClosestToWeightedAvgStat,
                        RepPick::ClosestToAvgSl, RepPick::MostFrequent),
        testing::Values(BinningMode::EqualWidth,
                        BinningMode::EqualFrequency)));

/** Parameterized: k-sweep of the single-pass selection. */
class SelectWithBinsSweep : public testing::TestWithParam<unsigned>
{
};

TEST_P(SelectWithBinsSweep, OnePointPerNonEmptyBin)
{
    unsigned k = GetParam();
    SlStats s = epochStats(77, 140);
    SeqPointSet set = selectWithBins(s, k);
    EXPECT_EQ(set.binsUsed, k);
    EXPECT_LE(set.points.size(), static_cast<size_t>(k));
    EXPECT_GE(set.points.size(), 1u);
    EXPECT_NEAR(set.totalWeight(),
                static_cast<double>(s.totalIterations()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(KSweep, SelectWithBinsSweep,
                         testing::Values(1u, 2u, 5u, 10u, 25u, 70u,
                                         140u));

TEST(SeqPoint, ExactWhenBinsEqualUniqueCount)
{
    // Contiguous SLs: with k == uniqueCount() every equal-width
    // bucket holds exactly one unique SL, so the projection
    // reproduces the epoch total exactly. (k beyond the unique count
    // is a contract violation since the binEntries fatal_if -- see
    // BinningDeath.RejectsMoreBinsThanUniqueSls.)
    Rng rng(50);
    std::vector<SlEntry> entries;
    for (int64_t sl = 20; sl < 60; ++sl) {
        entries.push_back(SlEntry{
            sl, static_cast<uint64_t>(rng.uniformInt(1, 12)),
            0.05 + 0.004 * static_cast<double>(sl)});
    }
    SlStats s = SlStats::fromEntries(std::move(entries));
    SeqPointSet fine = selectWithBins(
        s, static_cast<unsigned>(s.uniqueCount()));
    EXPECT_EQ(fine.points.size(), s.uniqueCount());
    EXPECT_NEAR(fine.projectTotal(), s.actualTotal(),
                1e-9 * s.actualTotal());
    EXPECT_LE(selectWithBins(s, 10).selfError, 0.05);
}

/** Bit pattern of a double, for exact (not ==) comparisons. */
uint64_t
bits(double d)
{
    return std::bit_cast<uint64_t>(d);
}

TEST(SeqPoint, SelectionAndProjectionIgnoreIterationOrder)
{
    // An epoch-like log: every iteration at one SL has the same time,
    // as every profiler-made log does, and SLs recur 1-12 times.
    Rng rng(60);
    std::vector<IterationSample> samples;
    int64_t sl = 8;
    for (size_t i = 0; i < 120; ++i) {
        sl += rng.uniformInt(1, 4);
        double x = static_cast<double>(sl);
        double t = 0.05 + 0.004 * x + 1e-6 * x * x;
        for (int64_t f = rng.uniformInt(1, 12); f > 0; --f)
            samples.push_back(IterationSample{sl, t});
    }
    auto target = [](int64_t s) {
        return 0.02 + 0.003 * static_cast<double>(s);
    };

    SlStats ref = SlStats::fromIterations(samples);
    SeqPointSet ref_sel = selectSeqPoints(ref);
    double ref_proj = projectTrainingTime(ref_sel, target);
    ASSERT_FALSE(ref_sel.usedAllUnique);

    for (uint64_t seed = 1; seed <= 8; ++seed) {
        std::vector<IterationSample> shuffled = samples;
        Rng(seed).shuffle(shuffled);

        SlStats s = SlStats::fromIterations(shuffled);
        ASSERT_EQ(s.uniqueCount(), ref.uniqueCount()) << seed;
        for (size_t i = 0; i < s.uniqueCount(); ++i) {
            const SlEntry &a = s.entries()[i], &b = ref.entries()[i];
            EXPECT_EQ(a.seqLen, b.seqLen) << seed;
            EXPECT_EQ(a.freq, b.freq) << seed;
            EXPECT_EQ(bits(a.statValue), bits(b.statValue)) << seed;
        }

        SeqPointSet sel = selectSeqPoints(s);
        ASSERT_EQ(sel.points.size(), ref_sel.points.size()) << seed;
        for (size_t i = 0; i < sel.points.size(); ++i) {
            const SeqPointRecord &a = sel.points[i];
            const SeqPointRecord &b = ref_sel.points[i];
            EXPECT_EQ(a.seqLen, b.seqLen) << seed;
            EXPECT_EQ(bits(a.weight), bits(b.weight)) << seed;
            EXPECT_EQ(bits(a.statValue), bits(b.statValue)) << seed;
        }
        EXPECT_EQ(sel.binsUsed, ref_sel.binsUsed) << seed;
        EXPECT_EQ(bits(sel.selfError), bits(ref_sel.selfError)) << seed;
        EXPECT_EQ(bits(projectTrainingTime(sel, target)), bits(ref_proj))
            << seed;
    }
}

TEST(SeqPointDeath, RejectsBadOptions)
{
    SlStats s = epochStats(1, 30);
    SeqPointOptions opts;
    opts.initialBins = 0;
    EXPECT_DEATH(selectSeqPoints(s, opts), "zero initial bins");
    SeqPointOptions neg;
    neg.errorThreshold = -1.0;
    EXPECT_DEATH(selectSeqPoints(s, neg), "negative");
}

} // anonymous namespace
} // namespace core
} // namespace seqpoint
