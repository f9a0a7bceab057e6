/**
 * @file
 * Synthetic sequence-length distributions. SeqPoint never inspects
 * sample *content* -- only each sample's sequence length -- so a
 * faithful SL distribution is a complete stand-in for the paper's
 * datasets. Shapes are calibrated to Fig 7: LibriSpeech-100h is
 * heavily right-skewed with a secondary mid-length mass; IWSLT'15 is
 * broader ("more uniform" in the paper's words).
 */

#ifndef SEQPOINT_DATA_DISTRIBUTIONS_HH
#define SEQPOINT_DATA_DISTRIBUTIONS_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/rng.hh"

namespace seqpoint {
namespace data {

/**
 * LibriSpeech-100h-like utterance lengths, in post-convolution time
 * steps (the DS2 GRU unroll factor), range [50, 450].
 *
 * Mixture: a dominant short-utterance gamma mode, a secondary
 * mid-length mode (audiobook sentences), and a thin long tail
 * (lengthkernel::kSpeechModes). Each length draws a mode uniform u,
 * picks the first mode with u below its bound, draws
 * v = offset + Rng::gamma(shape, scale), redraws the mode and v while
 * v > 450, and rounds v with clampLen. lengthkernel below computes
 * exactly these lengths without per-draw libm calls.
 *
 * @param rng Random source.
 * @param count Number of samples to draw.
 * @return Sample sequence lengths.
 */
std::vector<int64_t> librispeechLengths(Rng &rng, size_t count);

/**
 * IWSLT'15-like sentence lengths in tokens, range roughly [4, 220]:
 * a broad log-normal body with substantial mass across the range.
 * Each length is round(exp(x)) clamped to [4, 220], x = 3.2 + 0.7 z
 * for the Rng's next normal z, and a draw with exp(x) > 220 is redrawn;
 * lengthkernel below computes exactly these lengths without per-draw
 * libm calls.
 *
 * @param rng Random source.
 * @param count Number of samples to draw.
 * @return Sample sequence lengths.
 */
std::vector<int64_t> iwsltLengths(Rng &rng, size_t count);

/**
 * WMT'16-like sentence lengths: same SL *range* as IWSLT (the paper
 * notes the larger datasets cover similar ranges), slightly different
 * body shape. Used by the scaling discussion bench.
 *
 * @param rng Random source.
 * @param count Number of samples to draw.
 * @return Sample sequence lengths.
 */
std::vector<int64_t> wmtLengths(Rng &rng, size_t count);

/**
 * Clamp helper shared by the generators.
 *
 * @param value Raw draw.
 * @param lo Minimum allowed.
 * @param hi Maximum allowed.
 */
int64_t clampLen(double value, int64_t lo, int64_t hi);

/**
 * The length kernels behind iwsltLengths and wmtLengths (log-normal)
 * and librispeechLengths (gamma), exposed for their tests. Both take
 * their normals from the same Box-Muller tables.
 *
 * Log-normal kernel.
 * A length is a step function of x = mu + sigma z: it is kMinLen below
 * the edge ln 4.5, k between the edges ln(k - 0.5) and ln(k + 0.5)
 * (llround rounds halves up), kMaxLen from ln 219.5 to the rejection
 * edge ln 220, and rejected above it. The kernel draws the uniforms of
 * Rng::normal in the same order, 256 Box-Muller pairs at a time, and
 * computes an approximate x~ from 256-entry log and sincos tables
 * (built once with libm) plus short polynomials. It finds the cell of
 * x~ between the edges by a grid lookup: no exp and no llround.
 *
 * Exactness: |x~ - x| <= kApproxBound, where x is the value
 * BoxMuller::of and BoxMuller::first compute with libm (derivation in
 * distributions.cc). A draw whose x~ lies within kEdgeMargin of an edge
 * is recomputed from its pair's uniforms through BoxMuller -- the
 * helper Rng::normal calls -- and then through exp, the > 220 reject
 * and clampLen, exactly as the per-draw loop did. Every other draw is
 * at least kEdgeMargin - kApproxBound from the edges, far more than
 * the <= 1 ulp errors of libm's exp and of the edges themselves, so x
 * and x~ lie in the same cell. Every length therefore equals the
 * per-draw loop's by construction. The caller's Rng ends in the same
 * state as well: a spare pending at entry is taken per draw, a batch
 * never draws more pairs than the lengths still wanted can use, and a
 * half-used last pair is redrawn through Rng::normal, which keeps its
 * sine half as the spare.
 *
 * Gamma kernel. Each LibriSpeech trial is one Marsaglia-Tsang step of
 * Rng::gamma on a normal x: w = 1 + c x (rejected before its accept
 * uniform u is drawn when w <= 0), v = w^3, accepted when
 * u < 1 - 0.0331 x^4 or log u < x^2 / 2 + d (1 - v + log v), and
 * giving the length llround(offset + scale d v), or a redrawn mode
 * above kSpeechMaxLen. The kernel hoists d, c and scale d per mode
 * (with Rng::gamma's own expressions), draws the mode, u1, u2 and
 * accept uniforms inline in the per-draw order, and takes each x~ from
 * the Box-Muller tables. Since v is a polynomial in x, every decision
 * is made on x~ without exp or cbrt; only the log test, which about
 * 8% of trials reach, calls log.
 *
 * Exactness: each decision's value computed from x~ -- w, the squeeze
 * bound, the log test's right side and offset + scale d v -- is within
 * 1e-10 of the value computed from x (derivation in distributions.cc).
 * A trial whose value lies within kGammaMargin of its threshold (0,
 * u, log u, a half-integer or kSpeechMaxLen), or whose w is below
 * kMinCubeBase, is recomputed from its pair's exactPair() x through
 * Rng::gamma's arithmetic verbatim. Every other decision is the
 * per-draw loop's, so every length is too. The caller's Rng ends in
 * the same state: a spare pending at entry is the first normal, and a
 * sine half left at exit is restored by redrawing its pair through
 * Rng::normal and then the one uniform that followed it.
 */
namespace lengthkernel {

/** Shortest length; draws below ln 4.5 clamp to it. */
constexpr int64_t kMinLen = 4;
/** Longest length; draws with exp(x) > kMaxLen are rejected. */
constexpr int64_t kMaxLen = 220;
/** Box-Muller pairs computed per batch, and the most pairLengths takes. */
constexpr size_t kBatchPairs = 256;
/** Bound on |x~ - x| for |mu| <= 8 and 0 < sigma <= 1. */
constexpr double kApproxBound = 1e-13;
/** A draw is recomputed exactly when x~ lies this close to an edge. */
constexpr double kEdgeMargin = 1e-9;

/** cellLength() of an x~ within kEdgeMargin of an edge. */
constexpr int64_t kNearEdge = -1;
/** Length of a rejected draw (exp(x) > kMaxLen). */
constexpr int64_t kRejected = 0;

/** Both draws of one Box-Muller pair, as x = mu + sigma z. */
struct NormalPair
{
    /** The cosine half, which Rng::normal returns first. */
    double first;
    /** The sine half, which Rng::normal keeps as its spare. */
    double second;
};

/** @return The table-driven x~ of both halves of pair (u1, u2). */
NormalPair approxPair(double u1, double u2, double mu, double sigma);

/** @return The exact x of both halves, as Rng::normal computes them. */
NormalPair exactPair(double u1, double u2, double mu, double sigma);

/**
 * @return The length of exp(x) by cell lookup: a length, kRejected, or
 *         kNearEdge when x lies within kEdgeMargin of an edge.
 */
int64_t cellLength(double x);

/**
 * Append the lengths of pairs (u1[i], u2[i]) to lens in draw order,
 * each pair's cosine half first, skipping rejected draws and stopping
 * once lens holds want lengths. A draw whose x~ is kNearEdge takes
 * the length of its exactPair() x through exp, the reject and
 * clampLen.
 *
 * @param pairs Number of pairs, at most kBatchPairs.
 * @return Number of draws consumed.
 */
size_t pairLengths(const double *u1, const double *u2, size_t pairs,
                   double mu, double sigma, size_t want,
                   std::vector<int64_t> &lens);

/** Shortest LibriSpeech length; offsets keep every draw above it. */
constexpr int64_t kSpeechMinLen = 50;
/** Longest LibriSpeech length; longer draws redraw their mode. */
constexpr int64_t kSpeechMaxLen = 450;

/** One LibriSpeech mode: offset + Gamma(shape, scale). */
struct GammaMode
{
    /** The mode is picked when the mode uniform is below this. */
    double below;
    double offset;
    double shape;
    double scale;
};

/** LibriSpeech's mixture, in the order the mode uniform picks it. */
constexpr GammaMode kSpeechModes[] = {
    {0.55, 50.0, 2.2, 22.0},  // dominant short-utterance mode
    {0.80, 160.0, 3.0, 30.0}, // mid-length audiobook sentences
    {1.0, 260.0, 2.0, 55.0},  // long-utterance tail
};
constexpr size_t kSpeechModeCount = std::size(kSpeechModes);

/** A gamma trial is recomputed exactly within this of a threshold. */
constexpr double kGammaMargin = 1e-9;
/** A trial with w = 1 + c x~ below this is recomputed exactly. */
constexpr double kMinCubeBase = 1.0 / 64;
/** Result of a rejected Marsaglia-Tsang trial (the next normal follows). */
constexpr int64_t kTrialRejected = -2;

/**
 * The decision of one trial of mode kSpeechModes[mode] from normal x
 * and accept uniform u: a length, kRejected (above kSpeechMaxLen),
 * kTrialRejected, or kNearEdge when a value lies within its margin.
 */
int64_t gammaDecision(size_t mode, double x, double u);

/**
 * One trial as the kernel runs it: gammaDecision() on the x~ of the
 * pair (u1, u2) (its sine half when sine is set), recomputed from its
 * exactPair() x when that is kNearEdge. u is ignored when the trial is
 * rejected before Rng::gamma would draw it.
 */
int64_t gammaTrial(size_t mode, double u1, double u2, bool sine, double u);

} // namespace lengthkernel

} // namespace data
} // namespace seqpoint

#endif // SEQPOINT_DATA_DISTRIBUTIONS_HH
