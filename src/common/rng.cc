/**
 * @file
 * PCG32 implementation and derived distributions.
 */

#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace seqpoint {

Rng::Rng(uint64_t seed, uint64_t stream)
    : state(0), inc((stream << 1u) | 1u)
{
    next32();
    state += seed;
    next32();
}

uint32_t
Rng::next32()
{
    uint64_t old = state;
    state = old * 6364136223846793005ULL + inc;
    uint32_t xorshifted =
        static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
}

uint64_t
Rng::next64()
{
    // Two statements, so the high word is drawn first on every
    // compiler (the operands of | are unsequenced).
    uint64_t hi = next32();
    uint64_t lo = next32();
    return (hi << 32) | lo;
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    panic_if(hi < lo, "uniformInt: hi (%lld) < lo (%lld)",
             static_cast<long long>(hi), static_cast<long long>(lo));
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<int64_t>(next64());
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = UINT64_MAX - (UINT64_MAX % span);
    uint64_t v;
    do {
        v = next64();
    } while (v >= limit);
    return lo + static_cast<int64_t>(v % span);
}

double
Rng::uniformDouble()
{
    // 53 random mantissa bits.
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

double
Rng::uniformDouble(double lo, double hi)
{
    panic_if(hi <= lo, "uniformDouble: hi <= lo");
    return lo + (hi - lo) * uniformDouble();
}

double
Rng::normal(double mean, double stdev)
{
    panic_if(stdev < 0, "normal: negative stdev");
    if (haveSpareNormal) {
        haveSpareNormal = false;
        return mean + stdev * spareNormal;
    }
    double u1, u2;
    do {
        u1 = uniformDouble();
    } while (u1 <= 0.0);
    u2 = uniformDouble();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal = mag * std::sin(2.0 * M_PI * u2);
    haveSpareNormal = true;
    return mean + stdev * mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::gamma(double shape, double scale)
{
    panic_if(shape <= 0 || scale <= 0, "gamma: non-positive parameter");
    if (shape < 1.0) {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        double u = uniformDouble();
        while (u <= 0.0)
            u = uniformDouble();
        return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    // Marsaglia & Tsang.
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x = normal(0.0, 1.0);
        double v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        double u = uniformDouble();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return scale * d * v;
        if (u > 0.0 &&
            std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
            return scale * d * v;
        }
    }
}

int64_t
Rng::exponentialInt(double rate)
{
    panic_if(rate <= 0, "exponentialInt: non-positive rate");
    double u = uniformDouble();
    while (u <= 0.0)
        u = uniformDouble();
    return static_cast<int64_t>(std::floor(-std::log(u) / rate));
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        panic_if(w < 0, "weightedIndex: negative weight");
        total += w;
    }
    panic_if(total <= 0, "weightedIndex: all weights zero");
    double pick = uniformDouble() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (pick < acc)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork(uint64_t salt)
{
    uint64_t child_seed = next64() ^ (salt * 0x9e3779b97f4a7c15ULL);
    uint64_t child_stream = next64() ^ salt;
    return Rng(child_seed, child_stream);
}

} // namespace seqpoint
