/**
 * @file
 * Deterministic pseudo-random number generation (PCG32).
 *
 * All stochastic choices in the repository (dataset synthesis, batch
 * shuffling, cache address streams) flow through this generator so a
 * given seed reproduces a run bit-for-bit on any platform.
 *
 * The raw draws (next32, next64, uniformDouble) are integer operations
 * defined inline here, so hot sampling loops pay no call per draw.
 * Every normal sample goes through one libm Box-Muller helper
 * (BoxMuller::of in rng.cc). The dataset length kernels -- the
 * log-normal data::iwsltLengths and data::wmtLengths, and
 * data::librispeechLengths, which runs gamma()'s Marsaglia-Tsang
 * trials -- compute the same pairs from tables, and recompute through
 * that helper any draw whose approximation lands near a decision
 * edge, so their lengths match normal() and gamma() draw for draw and
 * leave the generator in the same state (see distributions.hh).
 */

#ifndef SEQPOINT_COMMON_RNG_HH
#define SEQPOINT_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace seqpoint {

/**
 * One Box-Muller transform evaluated with libm: the magnitude
 * sqrt(-2 ln u1) and the cosine and sine of the angle 2 pi u2.
 */
struct BoxMuller
{
    double mag;
    double cosine;
    double sine;

    /**
     * @param u1 Uniform in (0, 1).
     * @param u2 Uniform in [0, 1).
     */
    static BoxMuller of(double u1, double u2);

    /** @return The first normal, scaled: mean + stdev * mag * cosine. */
    double first(double mean, double stdev) const;

    /** @return The second normal, unscaled: mag * sine. */
    double spare() const;
};

/**
 * PCG32 (XSH-RR variant) pseudo-random generator.
 *
 * Small, fast, and with far better statistical behaviour than a bare
 * LCG; see O'Neill, "PCG: A Family of Simple Fast Space-Efficient
 * Statistically Good Algorithms for Random Number Generation".
 */
class Rng
{
  public:
    /**
     * Construct with a seed and an optional stream selector.
     *
     * @param seed Initial state seed.
     * @param stream Stream selector; distinct streams are independent.
     */
    explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL,
                 uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** @return The next raw 32-bit value. */
    uint32_t
    next32()
    {
        uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        uint32_t xorshifted =
            static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
        uint32_t rot = static_cast<uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** @return The next raw 64-bit value. */
    uint64_t
    next64()
    {
        // Two statements, so the high word is drawn first on every
        // compiler (the operands of | are unsequenced).
        uint64_t hi = next32();
        uint64_t lo = next32();
        return (hi << 32) | lo;
    }

    /**
     * Uniform integer in [lo, hi], inclusive on both ends.
     *
     * Uses rejection sampling so the distribution is exactly uniform.
     *
     * @param lo Lower bound.
     * @param hi Upper bound; must satisfy hi >= lo.
     */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** @return Uniform double in [0, 1): 53 random mantissa bits. */
    double
    uniformDouble()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /**
     * Uniform double in [lo, hi).
     *
     * @param lo Lower bound.
     * @param hi Upper bound; must satisfy hi > lo.
     */
    double uniformDouble(double lo, double hi);

    /**
     * Normal (Gaussian) sample via Box-Muller. Draws u1 (redrawn while
     * 0) and u2, returns BoxMuller::of(u1, u2).first(mean, stdev) and
     * keeps spare() for the next call, which returns
     * mean + stdev * spare and draws nothing.
     *
     * @param mean Distribution mean.
     * @param stdev Distribution standard deviation (>= 0).
     */
    double normal(double mean, double stdev);

    /** @return True when the next normal() returns the kept spare. */
    bool spareNormalPending() const { return haveSpareNormal; }

    /**
     * Log-normal sample: exp(N(mu, sigma)).
     *
     * @param mu Mean of the underlying normal.
     * @param sigma Standard deviation of the underlying normal.
     */
    double logNormal(double mu, double sigma);

    /**
     * Gamma sample (Marsaglia-Tsang for shape >= 1, boost for < 1).
     *
     * @param shape Shape parameter k (> 0).
     * @param scale Scale parameter theta (> 0).
     */
    double gamma(double shape, double scale);

    /**
     * Geometric-ish integer from an exponential: floor(Exp(rate)).
     *
     * @param rate Rate parameter lambda (> 0).
     */
    int64_t exponentialInt(double rate);

    /**
     * Sample an index according to unnormalised weights.
     *
     * @param weights Non-negative weights, at least one positive.
     * @return Index in [0, weights.size()).
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /**
     * Fisher-Yates shuffle of a vector in place.
     */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        if (items.size() < 2)
            return;
        for (std::size_t i = items.size() - 1; i > 0; --i) {
            auto j = static_cast<std::size_t>(uniformInt(0,
                static_cast<int64_t>(i)));
            std::swap(items[i], items[j]);
        }
    }

    /**
     * Derive an independent child generator, e.g. one per subsystem.
     *
     * @param salt Distinguishes children derived from the same parent.
     */
    Rng fork(uint64_t salt);

  private:
    uint64_t state;
    uint64_t inc;

    bool haveSpareNormal = false;
    double spareNormal = 0.0;
};

} // namespace seqpoint

#endif // SEQPOINT_COMMON_RNG_HH
