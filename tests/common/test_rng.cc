/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "common/stats_math.hh"

namespace seqpoint {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123, 5), b(123, 5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, Next64DrawsHighWordFirst)
{
    // next64() is two next32() draws, high word first, on every
    // compiler; the golden value pins the composed stream itself.
    Rng a(123, 5), b(123, 5);
    uint64_t hi = b.next32();
    uint64_t lo = b.next32();
    uint64_t v = a.next64();
    EXPECT_EQ(v, (hi << 32) | lo);
    EXPECT_EQ(v, 0xd8b97043dcc58f79ULL);
    EXPECT_EQ(a.next32(), b.next32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next32() == b.next32());
    EXPECT_LT(same, 4);
}

TEST(Rng, DifferentStreamsDiffer)
{
    Rng a(1, 10), b(1, 11);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next32() == b.next32());
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
        int64_t v = rng.uniformInt(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(3);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        seen[static_cast<size_t>(rng.uniformInt(0, 7))]++;
    for (int count : seen)
        EXPECT_GT(count, 300); // ~500 expected each
}

TEST(Rng, UniformDoubleInHalfOpenUnit)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniformDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NormalMomentsRoughlyMatch)
{
    Rng rng(17);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.normal(10.0, 3.0));
    EXPECT_NEAR(mean(xs), 10.0, 0.1);
    EXPECT_NEAR(stdev(xs), 3.0, 0.1);
}

TEST(Rng, GammaMomentsRoughlyMatch)
{
    Rng rng(23);
    double shape = 2.5, scale = 4.0;
    std::vector<double> xs;
    for (int i = 0; i < 30000; ++i)
        xs.push_back(rng.gamma(shape, scale));
    EXPECT_NEAR(mean(xs), shape * scale, 0.25);
}

TEST(Rng, GammaShapeBelowOne)
{
    Rng rng(29);
    std::vector<double> xs;
    for (int i = 0; i < 30000; ++i) {
        double v = rng.gamma(0.5, 2.0);
        EXPECT_GE(v, 0.0);
        xs.push_back(v);
    }
    EXPECT_NEAR(mean(xs), 1.0, 0.1);
}

TEST(Rng, LogNormalPositive)
{
    Rng rng(31);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.logNormal(1.0, 0.5), 0.0);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(37);
    std::vector<double> w{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        counts[rng.weightedIndex(w)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_GT(counts[2], counts[0]);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(41);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkedChildrenIndependent)
{
    Rng parent(55);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (c1.next32() == c2.next32());
    EXPECT_LT(same, 4);
}

TEST(RngDeath, UniformIntRejectsBadRange)
{
    Rng rng(1);
    EXPECT_DEATH(rng.uniformInt(5, 4), "hi");
}

} // anonymous namespace
} // namespace seqpoint
