/**
 * @file
 * Reference log-normal length generators for the length kernel's
 * identity tests, written the per-draw way: one Rng::logNormal, a
 * rejection above 220 and one clampLen per sample, plus the libm
 * Box-Muller formula of Rng::normal for a given pair of uniforms. The
 * kernel must reproduce these draw for draw.
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

} // namespace data
} // namespace seqpoint

#endif // SEQPOINT_TESTS_DATA_REFERENCE_LENGTHS_HH
