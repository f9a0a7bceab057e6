/**
 * @file
 * Identity tests for the length kernels behind iwsltLengths and
 * wmtLengths (log-normal) and librispeechLengths (gamma): their
 * lengths and the caller's Rng state must match the per-draw loops
 * (reference_lengths.hh), their near-edge fallbacks must give the
 * per-draw lengths, and the table-driven draws must stay within the
 * documented bound of libm's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "data/distributions.hh"
#include "reference_lengths.hh"

namespace seqpoint {
namespace data {
namespace {

using namespace lengthkernel;

struct Params {
    const char *name;
    double mu;
    double sigma;
    std::vector<int64_t> (*kernel)(Rng &, size_t);
    std::vector<int64_t> (*reference)(Rng &, size_t);
};

const Params kParams[] = {
    {"iwslt", 3.2, 0.70, iwsltLengths, referenceIwsltLengths},
    {"wmt", 3.35, 0.60, wmtLengths, referenceWmtLengths},
};

/** Expect a and b to be in the same state, spare normal included. */
void
expectSameState(Rng a, Rng b, const char *what)
{
    ASSERT_EQ(a.spareNormalPending(), b.spareNormalPending()) << what;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.normal(0.0, 1.0)),
              std::bit_cast<uint64_t>(b.normal(0.0, 1.0)))
        << what;
    EXPECT_EQ(a.next64(), b.next64()) << what;
}

TEST(LengthKernel, MatchesPerDrawLoopOverSeeds)
{
    // Counts span one draw to several batches, odd and even; odd seeds
    // start with a spare pending, and a second call follows the first,
    // as a dataset's eval split follows its train split.
    for (const Params &p : kParams) {
        for (uint64_t seed = 0; seed < 1200; ++seed) {
            Rng kernel_rng(seed, 0x1351);
            if (seed % 2 == 1)
                kernel_rng.normal(0.0, 1.0);
            Rng reference_rng = kernel_rng;
            size_t count = 1 + (seed * 37) % 1100;
            for (size_t call = 0; call < 2; ++call) {
                ASSERT_EQ(p.kernel(kernel_rng, count),
                          p.reference(reference_rng, count))
                    << p.name << " seed " << seed << " call " << call;
                expectSameState(kernel_rng, reference_rng, p.name);
                count = count / 3 + 1;
            }
        }
    }
}

TEST(LengthKernel, GammaMatchesPerDrawLoopOverSeeds)
{
    // As above: odd and even counts from one draw to a dataset's eval
    // split, odd seeds entering with a spare pending, and a second call
    // entering with whatever spare the first left.
    for (uint64_t seed = 0; seed < 1200; ++seed) {
        Rng kernel_rng(seed, 0x11b5);
        if (seed % 2 == 1)
            kernel_rng.normal(0.0, 1.0);
        Rng reference_rng = kernel_rng;
        size_t count = 1 + (seed * 37) % 2800;
        for (size_t call = 0; call < 2; ++call) {
            ASSERT_EQ(librispeechLengths(kernel_rng, count),
                      referenceLibrispeechLengths(reference_rng, count))
                << "seed " << seed << " call " << call;
            expectSameState(kernel_rng, reference_rng, "librispeech");
            count = count / 3 + 1;
        }
    }
    for (size_t count : {1, 2, 3, 17, 999}) {
        for (uint64_t seed = 0; seed < 100; ++seed) {
            Rng kernel_rng(seed), reference_rng(seed);
            ASSERT_EQ(librispeechLengths(kernel_rng, count),
                      referenceLibrispeechLengths(reference_rng, count))
                << "seed " << seed << " count " << count;
            expectSameState(kernel_rng, reference_rng, "librispeech");
        }
    }
}

TEST(LengthKernel, ZeroCountDrawsNothing)
{
    Rng rng(3), untouched(3);
    rng.normal(0.0, 1.0);
    untouched.normal(0.0, 1.0);
    EXPECT_TRUE(iwsltLengths(rng, 0).empty());
    expectSameState(rng, untouched, "zero count");
    EXPECT_TRUE(librispeechLengths(rng, 0).empty());
    expectSameState(rng, untouched, "zero count librispeech");
}

/** Every length edge in x = ln v: ln(k - 0.5), k = 5..220, and ln 220. */
std::vector<double>
edges()
{
    std::vector<double> e;
    for (int64_t k = kMinLen + 1; k <= kMaxLen; ++k)
        e.push_back(std::log(static_cast<double>(k) - 0.5));
    e.push_back(std::log(static_cast<double>(kMaxLen)));
    return e;
}

TEST(LengthKernel, CellLookupMatchesExpAndRound)
{
    // Off the margins, the cell lookup is the per-draw length; inside
    // them it defers. Probe a fine sweep plus both sides of every edge.
    std::vector<double> xs;
    for (double x = -4.0; x < 10.0; x += 1.0 / 4096)
        xs.push_back(x);
    for (double e : edges()) {
        for (double off : {-2.0, -1.01, -0.5, 0.0, 0.5, 1.01, 2.0})
            xs.push_back(e + off * kEdgeMargin);
    }
    size_t near = 0;
    for (double x : xs) {
        int64_t len = cellLength(x);
        if (len == kNearEdge) {
            ++near;
            continue;
        }
        EXPECT_EQ(len, referenceLength(x)) << "x " << x;
    }
    // Three probes per edge lie inside the margin.
    EXPECT_GE(near, 3 * edges().size());
    for (double e : edges()) {
        EXPECT_EQ(cellLength(e), kNearEdge) << e;
        EXPECT_EQ(cellLength(e - 0.5 * kEdgeMargin), kNearEdge) << e;
        EXPECT_EQ(cellLength(e + 0.5 * kEdgeMargin), kNearEdge) << e;
    }
    EXPECT_EQ(cellLength(-30.0), kMinLen);
    EXPECT_EQ(cellLength(30.0), kRejected);
}

TEST(LengthKernel, NearEdgePairsFallBackToPerDrawLengths)
{
    // For each edge and each half of a pair, pick u2 so that half's
    // trig factor is +-1 and search u1 (a multiple of 2^-53, as drawn)
    // for draws just below and just above the edge. Each must land in
    // the margin, and pairLengths must return the per-draw lengths.
    const double ulp = 0x1.0p-53;
    for (const Params &p : kParams) {
        for (double e : edges()) {
            for (int half = 0; half < 2; ++half) {
                bool above = e > p.mu;
                double u2 = half == 0 ? (above ? 0.0 : 0.5)
                                      : (above ? 0.25 : 0.75);
                double mag = std::fabs(e - p.mu) / p.sigma;
                double m0 = std::round(std::exp(-0.5 * mag * mag) / ulp);
                bool below_seen = false, above_seen = false;
                for (double m = m0 - 8; m <= m0 + 8; ++m) {
                    double u1 = m * ulp;
                    if (u1 <= 0.0 || u1 >= 1.0)
                        continue;
                    NormalPair exact = referencePair(u1, u2, p.mu, p.sigma);
                    double x = half == 0 ? exact.first : exact.second;
                    if (std::fabs(x - e) >= 0.5 * kEdgeMargin)
                        continue;
                    (x < e ? below_seen : above_seen) = true;
                    NormalPair approx = approxPair(u1, u2, p.mu, p.sigma);
                    EXPECT_EQ(cellLength(half == 0 ? approx.first
                                                   : approx.second),
                              kNearEdge)
                        << p.name << " edge " << e << " half " << half;

                    std::vector<int64_t> expected;
                    for (double xi : {exact.first, exact.second}) {
                        if (int64_t len = referenceLength(xi))
                            expected.push_back(len);
                    }
                    std::vector<int64_t> got;
                    EXPECT_EQ(pairLengths(&u1, &u2, 1, p.mu, p.sigma, 2, got),
                              2u);
                    EXPECT_EQ(got, expected)
                        << p.name << " edge " << e << " half " << half
                        << " u1 " << u1;
                }
                EXPECT_TRUE(below_seen && above_seen)
                    << p.name << " edge " << e << " half " << half;
            }
        }
    }
}

TEST(LengthKernel, ExactPairIsRngNormal)
{
    for (double u1 : {0x1.0p-53, 0.001, 0.5, 0.9, 1.0 - 0x1.0p-53}) {
        for (double u2 : {0.0, 0.1, 0.25, 0.6, 1.0 - 0x1.0p-53}) {
            NormalPair got = exactPair(u1, u2, 3.2, 0.7);
            NormalPair want = referencePair(u1, u2, 3.2, 0.7);
            EXPECT_EQ(std::bit_cast<uint64_t>(got.first),
                      std::bit_cast<uint64_t>(want.first));
            EXPECT_EQ(std::bit_cast<uint64_t>(got.second),
                      std::bit_cast<uint64_t>(want.second));
        }
    }
}

TEST(LengthKernel, ApproxPairWithinDocumentedBound)
{
    // u1 at its extremes and at every log-table cell boundary (each
    // power of two in range, each 2^-8 step of the mantissa) with its
    // neighbours, against u2 at every quadrant and sincos-table cell
    // boundary with its neighbours.
    const double ulp = 0x1.0p-53;
    std::vector<double> u1s;
    for (double m = 1; m <= 64; ++m) {
        u1s.push_back(m * ulp);
        u1s.push_back(1.0 - m * ulp);
    }
    for (int e = -52; e <= -1; e += 3) {
        for (int cell = 0; cell < 256; cell += 5) {
            double b = std::ldexp(1.0 + cell / 256.0, e);
            for (double u : {b - ulp, b, b + ulp}) {
                if (u > 0.0 && u < 1.0)
                    u1s.push_back(u);
            }
        }
    }
    Rng rng(11);
    for (int i = 0; i < 200; ++i)
        u1s.push_back(1.0 - rng.uniformDouble());

    std::vector<double> u2s;
    for (int cell = 0; cell <= 256; ++cell) {
        double b = cell / 256.0;
        for (double u : {b - ulp, b, b + ulp}) {
            if (u >= 0.0 && u < 1.0)
                u2s.push_back(u);
        }
    }
    for (int i = 0; i < 200; ++i)
        u2s.push_back(rng.uniformDouble());

    const double params[][2] = {{3.2, 0.70}, {3.35, 0.60}, {8.0, 1.0},
                                {-8.0, 1.0}, {0.0, 1.0}};
    double worst = 0.0;
    for (const auto &mp : params) {
        for (double u1 : u1s) {
            for (double u2 : u2s) {
                NormalPair approx = approxPair(u1, u2, mp[0], mp[1]);
                NormalPair exact = referencePair(u1, u2, mp[0], mp[1]);
                worst = std::max({worst,
                                  std::fabs(approx.first - exact.first),
                                  std::fabs(approx.second - exact.second)});
            }
        }
    }
    EXPECT_LE(worst, kApproxBound);
}

/** Rng::gamma's d, c and scale d for a mode, by its expressions. */
struct GammaTerms {
    double d;
    double c;
    double sd;
};

GammaTerms
termsOf(const GammaMode &mode)
{
    double d = mode.shape - 1.0 / 3.0;
    return {d, 1.0 / std::sqrt(9.0 * d), mode.scale * d};
}

TEST(LengthKernel, GammaDecisionMatchesPerDrawTrial)
{
    // Off its margins, the decision on an exact x is Rng::gamma's
    // trial and length; inside them it defers.
    const double us[] = {0.0, 0x1.0p-53, 1e-9, 0.01, 0.3, 0.6, 0.9,
                         0.97, 0.995, 1.0 - 0x1.0p-53};
    for (size_t mode = 0; mode < kSpeechModeCount; ++mode) {
        size_t decided = 0;
        for (double x = -8.5; x < 8.5; x += 1.0 / 512) {
            for (double u : us) {
                int64_t got = gammaDecision(mode, x, u);
                if (got == kNearEdge)
                    continue;
                ++decided;
                EXPECT_EQ(got, referenceGammaTrial(kSpeechModes[mode], x, u))
                    << "mode " << mode << " x " << x << " u " << u;
            }
        }
        EXPECT_GT(decided, 8000u * std::size(us));

        // Below kMinCubeBase, log v is too steep in x for the log test
        // to be decided from x~: every such trial defers.
        GammaTerms k = termsOf(kSpeechModes[mode]);
        for (double w : {2 * kGammaMargin, 1e-6, 1e-3, kMinCubeBase / 2}) {
            for (double u : us) {
                EXPECT_EQ(gammaDecision(mode, (w - 1.0) / k.c, u), kNearEdge)
                    << "mode " << mode << " w " << w << " u " << u;
            }
        }
    }
}

/** A pair half whose exact x is near target, and that x. */
struct Draw {
    double u1;
    double u2;
    bool sine;
    double x;
};

/**
 * Pairs whose cosine (half 0) or sine (half 1) half lies near target:
 * u2 makes that half's trig factor +-1, and u1 (a multiple of 2^-53,
 * as drawn) steps through the neighbours of exp(-target^2 / 2).
 */
std::vector<Draw>
drawsNear(double target, int half)
{
    const double ulp = 0x1.0p-53;
    bool positive = target > 0.0;
    double u2 = half == 0 ? (positive ? 0.0 : 0.5)
                          : (positive ? 0.25 : 0.75);
    double m0 = std::round(std::exp(-0.5 * target * target) / ulp);
    std::vector<Draw> draws;
    for (double m = m0 - 32; m <= m0 + 32; ++m) {
        double u1 = m * ulp;
        if (u1 <= 0.0 || u1 >= 1.0)
            continue;
        NormalPair exact = referencePair(u1, u2, 0.0, 1.0);
        draws.push_back(
            {u1, u2, half == 1, half == 0 ? exact.first : exact.second});
    }
    return draws;
}

/**
 * Expect a trial inside a margin to defer from its x~ and the kernel's
 * trial to give the per-draw result.
 */
void
expectFallback(size_t mode, const Draw &draw, double u, const char *what)
{
    NormalPair approx = approxPair(draw.u1, draw.u2, 0.0, 1.0);
    EXPECT_EQ(gammaDecision(mode, draw.sine ? approx.second : approx.first,
                            u),
              kNearEdge)
        << what << " mode " << mode << " u1 " << draw.u1 << " u " << u;
    EXPECT_EQ(gammaTrial(mode, draw.u1, draw.u2, draw.sine, u),
              referenceGammaTrial(kSpeechModes[mode], draw.x, u))
        << what << " mode " << mode << " u1 " << draw.u1 << " u " << u;
}

TEST(LengthKernel, GammaNearEdgeInXFallsBackToPerDrawTrial)
{
    // Edges in x: w = 1 + c x = 0, and every length edge -- each
    // half-integer a mode reaches and the rejection edge 450. For
    // both halves of a pair, draws just below and just above each edge
    // must defer and give the per-draw result.
    for (size_t mode = 0; mode < kSpeechModeCount; ++mode) {
        const GammaMode &g = kSpeechModes[mode];
        GammaTerms k = termsOf(g);
        for (int half = 0; half < 2; ++half) {
            bool below = false, above = false;
            for (const Draw &draw : drawsNear(-1.0 / k.c, half)) {
                double w = 1.0 + k.c * draw.x;
                if (std::fabs(w) >= 0.5 * kGammaMargin)
                    continue;
                (w <= 0.0 ? below : above) = true;
                expectFallback(mode, draw, 0.5, "w = 0");
            }
            EXPECT_TRUE(below && above) << "w = 0 mode " << mode;

            std::vector<double> edges;
            for (double e = std::floor(g.offset) + 0.5; e < 450.0; ++e)
                edges.push_back(e);
            edges.push_back(450.0);
            for (double e : edges) {
                double target =
                    (std::cbrt((e - g.offset) / k.sd) - 1.0) / k.c;
                below = above = false;
                for (const Draw &draw : drawsNear(target, half)) {
                    double w = 1.0 + k.c * draw.x;
                    double len = g.offset + k.sd * (w * w * w);
                    if (std::fabs(len - e) >= 0.5 * kGammaMargin)
                        continue;
                    (len < e ? below : above) = true;
                    // A tiny u accepts every trial these x reach.
                    expectFallback(mode, draw, 0x1.0p-53, "length edge");
                }
                EXPECT_TRUE(below && above)
                    << "mode " << mode << " edge " << e << " half " << half;
            }
        }
    }
}

TEST(LengthKernel, GammaNearEdgeInUFallsBackToPerDrawTrial)
{
    // Edges in u: the squeeze bound 1 - 0.0331 x^4 and the log test's
    // exp(x^2 / 2 + d (1 - v + log v)). For x from both halves of
    // several pairs, the accept uniforms nearest each bound must defer
    // and give the per-draw result.
    const double ulp = 0x1.0p-53;
    for (size_t mode = 0; mode < kSpeechModeCount; ++mode) {
        GammaTerms k = termsOf(kSpeechModes[mode]);
        size_t squeeze_edges = 0, log_edges = 0;
        for (double u1 : {0.95, 0.7, 0.4, 0.2, 0.08, 0.02, 0.003}) {
            for (double u2 : {0.0, 0.5, 0.25, 0.75}) {
                bool sine = u2 == 0.25 || u2 == 0.75;
                NormalPair exact = referencePair(u1, u2, 0.0, 1.0);
                Draw draw{u1, u2, sine, sine ? exact.second : exact.first};
                double x = draw.x;
                double squeeze = 1.0 - 0.0331 * x * x * x * x;
                double v = 1.0 + k.c * x;
                v = v * v * v;
                double bound = 0.5 * x * x + k.d * (1.0 - v + std::log(v));

                auto sweep = [&](double edge, auto below_edge,
                                 const char *what) {
                    bool below = false, above = false;
                    double m0 = std::round(edge / ulp);
                    for (double m = m0 - 8; m <= m0 + 8; ++m) {
                        double u = m * ulp;
                        if (u < 0.0 || u >= 1.0)
                            continue;
                        (below_edge(u) ? below : above) = true;
                        expectFallback(mode, draw, u, what);
                    }
                    EXPECT_TRUE(below && above)
                        << what << " mode " << mode << " x " << x;
                };
                if (squeeze > 0.0) {
                    ++squeeze_edges;
                    sweep(squeeze, [&](double u) { return u < squeeze; },
                          "squeeze");
                }
                double log_edge = std::exp(bound);
                if (v > 0.0 && log_edge > squeeze + 1e-6) {
                    ++log_edges;
                    sweep(log_edge,
                          [&](double u) { return std::log(u) < bound; },
                          "log test");
                }
            }
        }
        EXPECT_GE(squeeze_edges, 16u) << "mode " << mode;
        EXPECT_GE(log_edges, 16u) << "mode " << mode;
    }
}

} // namespace
} // namespace data
} // namespace seqpoint
