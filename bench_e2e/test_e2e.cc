/**
 * @file
 * Unit tests for the end-to-end benchmark's own code: seeded inputs,
 * the percentile rule, failure accounting and the span tracer.
 */

#include <gtest/gtest.h>

#include <set>

#include "e2e.hh"

using namespace e2e;

namespace {

const PlanSizes kSizes{65, 2, 3, 4};

std::vector<WarmStream::Pick>
picks(const Plan &plan, uint64_t seed, unsigned client, std::size_t n)
{
    WarmStream stream(plan, seed, client, 2, 8);
    std::vector<WarmStream::Pick> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(stream.next());
    return out;
}

} // anonymous namespace

TEST(E2ePlan, SameSeedSameInputs)
{
    Plan a = makePlan(7, kSizes);
    Plan b = makePlan(7, kSizes);
    EXPECT_EQ(a, b);
    EXPECT_EQ(picks(a, 7, 0, 500), picks(b, 7, 0, 500));
}

TEST(E2ePlan, DifferentSeedDifferentInputs)
{
    Plan a = makePlan(7, kSizes);
    Plan b = makePlan(8, kSizes);
    EXPECT_NE(a.cold, b.cold);
    EXPECT_NE(a.grid, b.grid);
    EXPECT_NE(a.trickle, b.trickle);
    EXPECT_NE(a.sweeps, b.sweeps);
    EXPECT_NE(picks(a, 7, 0, 500), picks(b, 8, 0, 500));
}

TEST(E2ePlan, ShapeAndDistinctSeeds)
{
    Plan p = makePlan(3, kSizes);
    ASSERT_EQ(p.cold.size(), 65u);
    ASSERT_EQ(p.sweeps.size(), 2u * (1u + 2u));
    EXPECT_EQ(p.sweeps[0].datasetSeed, kReferenceSeed);
    EXPECT_EQ(p.sweeps[1].datasetSeed, kReferenceSeed);
    EXPECT_EQ(p.grid.size(), 3u * 2u * kNumConfigs);
    EXPECT_EQ(p.trickle.size(), 4u * 2u * kNumConfigs);

    // One DS2 query in every block.
    for (std::size_t b = 0; b + kColdBlock <= p.cold.size(); b += kColdBlock) {
        int ds2 = 0;
        for (std::size_t i = b; i < b + kColdBlock; ++i)
            ds2 += p.cold[i].net == Net::Ds2;
        EXPECT_EQ(ds2, 1) << "block " << b / kColdBlock;
    }
    std::set<uint64_t> seeds;
    for (const ColdQuery &q : p.cold) {
        EXPECT_GE(q.target, kFirstTarget);
        EXPECT_LT(q.target, kNumConfigs);
        EXPECT_TRUE(seeds.insert(q.datasetSeed).second);
    }
    for (std::size_t i = 2; i < p.sweeps.size(); ++i)
        EXPECT_TRUE(seeds.insert(p.sweeps[i].datasetSeed).second);
    EXPECT_EQ(seeds.count(kReferenceSeed), 0u);
    // Grid and trickle seeds are shared by the five configs of a pair
    // set, never with another list.
    std::set<uint64_t> grid_seeds, trickle_seeds;
    for (const Pair &q : p.grid)
        grid_seeds.insert(q.datasetSeed);
    for (const Pair &q : p.trickle)
        trickle_seeds.insert(q.datasetSeed);
    for (uint64_t s : grid_seeds) {
        EXPECT_EQ(seeds.count(s), 0u);
        EXPECT_EQ(trickle_seeds.count(s), 0u);
    }
}

TEST(E2eWarmStream, ColdShareAndTrickleSplit)
{
    Plan p = makePlan(5, kSizes);
    std::vector<std::size_t> cold0, cold1;
    for (const WarmStream::Pick &k : picks(p, 5, 0, 1000)) {
        if (k.cold)
            cold0.push_back(k.index);
        else
            EXPECT_LT(k.index, p.grid.size());
    }
    for (const WarmStream::Pick &k : picks(p, 5, 1, 1000)) {
        if (k.cold)
            cold1.push_back(k.index);
    }
    // Every 8th pick is cold until the client's half of the trickle is
    // used up; the halves are disjoint and cover the trickle.
    EXPECT_EQ(cold0.size(), p.trickle.size() / 2);
    EXPECT_EQ(cold1.size(), p.trickle.size() / 2);
    std::set<std::size_t> all(cold0.begin(), cold0.end());
    all.insert(cold1.begin(), cold1.end());
    EXPECT_EQ(all.size(), p.trickle.size());
}

TEST(E2eWarmStream, ZipfFavoursTopRanks)
{
    Plan p = makePlan(5, kSizes);
    std::vector<int> hits(p.grid.size(), 0);
    for (const WarmStream::Pick &k : picks(p, 5, 0, 20000)) {
        if (!k.cold)
            ++hits[k.index];
    }
    EXPECT_GT(hits[0], hits[1]);
    EXPECT_GT(hits[1], hits[p.grid.size() - 1]);
}

TEST(E2ePercentile, NeedsTenSamplesBeyond)
{
    std::vector<double> xs;
    for (int i = 1; i <= 99; ++i)
        xs.push_back(i);
    // p90 of 99 samples leaves 9 above it: not reported.
    EXPECT_FALSE(supportedPercentile(xs, 90).has_value());
    xs.push_back(100);
    // p90 of 100 samples is the 90th value, with 10 above it.
    ASSERT_TRUE(supportedPercentile(xs, 90).has_value());
    EXPECT_EQ(*supportedPercentile(xs, 90), 90.0);
    EXPECT_FALSE(supportedPercentile(xs, 99).has_value());

    std::vector<double> many(1000);
    for (std::size_t i = 0; i < many.size(); ++i)
        many[i] = static_cast<double>(many.size() - i);
    ASSERT_TRUE(supportedPercentile(many, 99).has_value());
    EXPECT_EQ(*supportedPercentile(many, 99), 990.0);
    EXPECT_FALSE(supportedPercentile({}, 50).has_value());
}

TEST(E2ePercentile, Median)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(E2eTally, ShedTimeoutMismatchEachFail)
{
    using seqpoint::ErrorCode;
    using seqpoint::Status;
    EXPECT_EQ(classify(Status(), true), Outcome::Ok);
    EXPECT_EQ(classify(Status(), false), Outcome::Mismatch);
    EXPECT_EQ(classify(Status::error(ErrorCode::Overloaded, "full"), true),
              Outcome::Shed);
    EXPECT_EQ(classify(Status::error(ErrorCode::Timeout, "late"), true),
              Outcome::Timeout);
    EXPECT_EQ(classify(Status::error(ErrorCode::Cancelled, "gone"), true),
              Outcome::Failed);

    Tally t;
    t.add(Outcome::Ok);
    t.add(Outcome::Shed);
    t.add(Outcome::Timeout);
    t.add(Outcome::Mismatch);
    t.add(Outcome::Failed);
    EXPECT_EQ(t.attempted, 5u);
    EXPECT_EQ(t.failed(), 4u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.8);

    Tally u;
    u.add(Outcome::Ok);
    u.merge(t);
    EXPECT_EQ(u.attempted, 6u);
    EXPECT_EQ(u.failed(), 4u);
    EXPECT_EQ(Tally{}.failedFrac(), 0.0);
}

TEST(E2eTracer, RecordsNestedSpansOnlyWhenEnabled)
{
    Tracer off(false);
    {
        Span s(off, "a");
        EXPECT_EQ(s.id(), 0u);
    }
    off.record("b", 0, 0, 1.0, 2.0);
    EXPECT_TRUE(off.spans().empty());

    Tracer on(true);
    {
        Span outer(on, "outer", 0, 7);
        Span inner(on, "inner", outer.id(), 7);
    }
    on.record("done", 0, 8, 1.0, 1.5);
    std::vector<SpanRecord> spans = on.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].request, 7u);
    EXPECT_GE(spans[0].endSec, spans[1].endSec);
    EXPECT_LE(spans[0].startSec, spans[1].startSec);
    EXPECT_EQ(on.durations("done"), std::vector<double>{0.5});
}
