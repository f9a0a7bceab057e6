/**
 * @file
 * Reference length generators for the length kernels' identity
 * tests, written the per-draw way: for the log-normal datasets one
 * Rng::logNormal, a rejection above 220 and one clampLen per sample;
 * for LibriSpeech one mode uniform and one Rng::gamma per draw, a
 * rejection above 450 and one clampLen. Beside them, the libm
 * Box-Muller formula of Rng::normal for a given pair of uniforms and
 * Rng::gamma's arithmetic for one trial. The kernels must reproduce
 * these draw for draw.
 */

#ifndef SEQPOINT_TESTS_DATA_REFERENCE_LENGTHS_HH
#define SEQPOINT_TESTS_DATA_REFERENCE_LENGTHS_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "data/distributions.hh"

namespace seqpoint {
namespace data {

/** librispeechLengths, one mode uniform and one gamma per draw. */
inline std::vector<int64_t>
referenceLibrispeechLengths(Rng &rng, size_t count)
{
    std::vector<int64_t> lens;
    lens.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        // Rejection-resample instead of clamping so no artificial
        // probability mass piles up at the range edges.
        double v;
        do {
            double u = rng.uniformDouble();
            if (u < 0.55) {
                // Dominant short-utterance mode.
                v = 50.0 + rng.gamma(2.2, 22.0);
            } else if (u < 0.80) {
                // Mid-length audiobook sentences.
                v = 160.0 + rng.gamma(3.0, 30.0);
            } else {
                // Long-utterance tail.
                v = 260.0 + rng.gamma(2.0, 55.0);
            }
        } while (v > 450.0);
        lens.push_back(clampLen(v, 50, 450));
    }
    return lens;
}

/** iwsltLengths, one logNormal per draw. */
inline std::vector<int64_t>
referenceIwsltLengths(Rng &rng, size_t count)
{
    std::vector<int64_t> lens;
    lens.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        // Broad log-normal body: median ~25 tokens, long tail.
        double v;
        do {
            v = rng.logNormal(3.2, 0.70);
        } while (v > 220.0);
        lens.push_back(clampLen(v, 4, 220));
    }
    return lens;
}

/** wmtLengths, one logNormal per draw. */
inline std::vector<int64_t>
referenceWmtLengths(Rng &rng, size_t count)
{
    std::vector<int64_t> lens;
    lens.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        // Same range as IWSLT, slightly longer median (news text).
        double v;
        do {
            v = rng.logNormal(3.35, 0.60);
        } while (v > 220.0);
        lens.push_back(clampLen(v, 4, 220));
    }
    return lens;
}

/**
 * x = mu + sigma z of both halves of the Box-Muller pair (u1, u2), as
 * Rng::normal computes them: the cosine half first, then the sine half
 * it keeps as the spare.
 */
inline lengthkernel::NormalPair
referencePair(double u1, double u2, double mu, double sigma)
{
    double mag = std::sqrt(-2.0 * std::log(u1));
    double spare = mag * std::sin(2.0 * M_PI * u2);
    return {mu + sigma * mag * std::cos(2.0 * M_PI * u2),
            mu + sigma * spare};
}

/** Length of one draw x, 0 when it is rejected, as the loops above. */
inline int64_t
referenceLength(double x)
{
    double v = std::exp(x);
    return v > 220.0 ? 0 : clampLen(v, 4, 220);
}

/**
 * One trial of Rng::gamma(mode.shape, mode.scale) on normal x and
 * accept uniform u, then the length of mode.offset plus its result as
 * the loop above takes it: a length, 0 when it is above 450, -2 when
 * the trial is rejected (u is not drawn when 1 + c x <= 0).
 */
inline int64_t
referenceGammaTrial(const lengthkernel::GammaMode &mode, double x, double u)
{
    double scale = mode.scale;
    double d = mode.shape - 1.0 / 3.0;
    double c = 1.0 / std::sqrt(9.0 * d);
    double v = 1.0 + c * x;
    if (v <= 0.0)
        return -2;
    v = v * v * v;
    double gamma;
    if (u < 1.0 - 0.0331 * x * x * x * x) {
        gamma = scale * d * v;
    } else if (u > 0.0 &&
               std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        gamma = scale * d * v;
    } else {
        return -2;
    }
    double len = mode.offset + gamma;
    return len > 450.0 ? 0 : clampLen(len, 50, 450);
}

} // namespace data
} // namespace seqpoint

#endif // SEQPOINT_TESTS_DATA_REFERENCE_LENGTHS_HH
