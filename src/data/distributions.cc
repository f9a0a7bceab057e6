/**
 * @file
 * Synthetic sequence-length distribution implementations.
 */

#include "data/distributions.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace seqpoint {
namespace data {

int64_t
clampLen(double value, int64_t lo, int64_t hi)
{
    int64_t v = static_cast<int64_t>(std::llround(value));
    return std::clamp(v, lo, hi);
}

namespace lengthkernel {

/*
 * Error bound. x = mu + sigma * mag * c with mag = sqrt(-2 log u1) and
 * c = cos(2 pi u2) (sin for the second half), each evaluated by libm to
 * within 1 ulp of its argument as rounded; mag <= sqrt(2 * 53 ln 2) <
 * 8.6 since u1 >= 2^-53.
 *
 * log u1 = e ln 2 + log z, z in [0.6875, 1.375). Cell i of z has centre
 * c_i and ic_i = fl(1 / c_i); log z = log1p(r) - log(ic_i) with
 * r = z ic_i - 1 (the subtraction is exact), |r| < 2^-8, and log1p a
 * degree-6 Taylor polynomial (remainder < |r|^7 / 6 < 1e-17). The two
 * cells beside z = 1 use ic = 1, so r = z - 1 is exact and a u1 near 1
 * keeps its full relative accuracy. The error in log u1 is then below
 * 2e-15 + 2^-52 |log u1|, relative 2e-15 near u1 = 1, so the error in
 * mag stays below 1e-15 + mag * 2e-15.
 *
 * The angle 2 pi u2 falls into one of 256 cells with centre a_j; with
 * d = 2 pi (u2 - centre), |d| <= pi / 256, sin and cos of d come from
 * degree-5 and degree-6 Taylor polynomials (remainders < 1e-17) and
 * the table's sin and cos of a_j (each within 8e-16, the rounding of
 * a_j included). libm's own argument fl(fl(2 pi) u2) is within 7e-16
 * of 2 pi u2, so the approximate cosine and sine are within 2e-15 of
 * libm's.
 *
 * Altogether |z~ - z| <= 8.6 * 2e-15 + 2e-15 < 2e-14, and with the
 * roundings of sigma * z and of mu + sigma z (|x| < 17, ulp 3.6e-15)
 * |x~ - x| < 3e-14 for sigma <= 1 and |mu| <= 8: under kApproxBound.
 * The tests sweep the extremes of u1 against every sincos cell.
 */

namespace {

/** Edges: ln(k - 0.5) for k = kMinLen + 1 .. kMaxLen, then ln kMaxLen. */
constexpr size_t kEdges = static_cast<size_t>(kMaxLen - kMinLen) + 1;
/**
 * Grid cells over [first edge, last edge]; each is narrower than the
 * closest pair of edges, ln(220 / 219.5) = 0.00228, so it holds at
 * most one edge.
 */
constexpr size_t kGridCells = 2048;
/** log z for u1 = 2^e z is taken on z in [kLogBase, 2 kLogBase). */
constexpr uint64_t kLogBaseBits = 0x3fe6000000000000ULL; // 0.6875
constexpr unsigned kTableBits = 8;
constexpr size_t kTableSize = size_t{1} << kTableBits;
constexpr double kLn2 = 0x1.62e42fefa39efp-1;
constexpr double kTwoPi = 2.0 * M_PI;

struct Tables
{
    /** 1 / centre and log(centre) per log cell; exactly 1 and 0 beside z = 1. */
    double invCentre[kTableSize];
    double logCentre[kTableSize];
    /** cos and sin of the centre of each of the 256 angle cells. */
    double cosCentre[kTableSize];
    double sinCentre[kTableSize];
    /** -inf, the kEdges edges, +inf: draw cell j is [edge[j], edge[j + 1]). */
    double edge[kEdges + 2];
    /** Lowest draw cell each grid cell can start in (0 below, kEdges above). */
    uint8_t gridStart[kGridCells + 2];
    static_assert(kEdges <= UINT8_MAX);
    double gridScale;
};

Tables
buildTables()
{
    Tables t;
    for (size_t i = 0; i < kTableSize; ++i) {
        // Cell i of z: consecutive bit patterns from kLogBaseBits,
        // 2^-9 wide below z = 1 and 2^-8 wide above it.
        double lo = std::bit_cast<double>(kLogBaseBits +
            (uint64_t{i} << (52 - kTableBits)));
        double hi = std::bit_cast<double>(kLogBaseBits +
            (uint64_t{i + 1} << (52 - kTableBits)));
        double inv = (lo == 1.0 || hi == 1.0) ? 1.0 : 1.0 / (0.5 * (lo + hi));
        t.invCentre[i] = inv;
        t.logCentre[i] = -std::log(inv);
        double a = kTwoPi * (static_cast<double>(i) + 0.5) /
            static_cast<double>(kTableSize);
        t.cosCentre[i] = std::cos(a);
        t.sinCentre[i] = std::sin(a);
    }
    t.edge[0] = -INFINITY;
    for (size_t j = 1; j < kEdges; ++j)
        t.edge[j] = std::log(static_cast<double>(kMinLen) +
                             static_cast<double>(j) - 0.5);
    t.edge[kEdges] = std::log(static_cast<double>(kMaxLen));
    t.edge[kEdges + 1] = INFINITY;
    double width = (t.edge[kEdges] - t.edge[1]) / kGridCells;
    t.gridScale = 1.0 / width;
    t.gridStart[0] = 0;
    for (size_t g = 1; g < kGridCells + 2; ++g) {
        double lo = t.edge[1] + static_cast<double>(g - 1) * width;
        size_t j = 1;
        while (j < kEdges && t.edge[j + 1] <= lo)
            ++j;
        t.gridStart[g] = static_cast<uint8_t>(j);
    }
    return t;
}

const Tables &
tables()
{
    static const Tables t = buildTables();
    return t;
}

inline NormalPair
approx(const Tables &t, double u1, double u2, double mu, double sigma)
{
    // log u1 = e ln 2 + log1p(z / c - 1) + log c, z = u1 / 2^e.
    uint64_t bits = std::bit_cast<uint64_t>(u1);
    uint64_t off = bits - kLogBaseBits;
    size_t i = (off >> (52 - kTableBits)) % kTableSize;
    double e = static_cast<double>(static_cast<int64_t>(off) >> 52);
    double z = std::bit_cast<double>(bits - (off & (0xfffULL << 52)));
    double r = z * t.invCentre[i] - 1.0;
    double q = ((((-1.0 / 6 * r + 1.0 / 5) * r - 1.0 / 4) * r + 1.0 / 3) *
                r - 1.0 / 2);
    double log_u1 = (e * kLn2 + t.logCentre[i]) + (r + r * r * q);
    double mag = std::sqrt(-2.0 * log_u1);

    // 2 pi u2 = a_j + d, a_j the centre of angle cell j.
    double s = u2 * static_cast<double>(kTableSize);
    size_t j = static_cast<size_t>(s);
    double d = (s - static_cast<double>(j) - 0.5) *
        (kTwoPi / static_cast<double>(kTableSize));
    double d2 = d * d;
    double sin_d = d + d * d2 * (-1.0 / 6 + d2 * (1.0 / 120));
    double cos_d1 = d2 * (-1.0 / 2 + d2 * (1.0 / 24 - d2 * (1.0 / 720)));
    double ca = t.cosCentre[j], sa = t.sinCentre[j];
    double cosine = ca + (ca * cos_d1 - sa * sin_d);
    double sine = sa + (sa * cos_d1 + ca * sin_d);
    return {mu + sigma * mag * cosine, mu + sigma * (mag * sine)};
}

/**
 * The grid index may be one off for x within rounding of a grid line;
 * then j is one cell off and x lies outside [edge[j] + margin,
 * edge[j + 1] - margin), so the answer is kNearEdge, never a wrong
 * length.
 */
inline int64_t
cellOf(const Tables &t, double x)
{
    double g = std::clamp((x - t.edge[1]) * t.gridScale, -1.0,
                          static_cast<double>(kGridCells));
    size_t j = t.gridStart[static_cast<size_t>(g + 1.0)];
    if (x >= t.edge[j + 1])
        ++j;
    if (x - t.edge[j] < kEdgeMargin || t.edge[j + 1] - x < kEdgeMargin)
        return kNearEdge;
    return j == kEdges ? kRejected : kMinLen + static_cast<int64_t>(j);
}

/** Length of exp(x) the per-draw way; kRejected above kMaxLen. */
int64_t
exactLength(double x)
{
    double v = std::exp(x);
    return v > static_cast<double>(kMaxLen) ? kRejected
                                            : clampLen(v, kMinLen, kMaxLen);
}

/**
 * count lengths of exp(mu + sigma z), z the Rng's next normals, with
 * draws above kMaxLen rejected: what the per-draw loop
 * `do v = rng.logNormal(mu, sigma); while (v > 220);
 * push(clampLen(v, 4, 220))` returns, with rng left as that loop
 * leaves it. |mu| <= 8 and 0 < sigma <= 1, where kApproxBound holds.
 */
std::vector<int64_t>
logNormalLengths(Rng &rng, size_t count, double mu, double sigma)
{
    std::vector<int64_t> lens;
    lens.reserve(count);
    // A spare left by an earlier call is the next draw: take it the
    // per-draw way, so the batches start on a fresh pair.
    if (count > 0 && rng.spareNormalPending()) {
        int64_t len = exactLength(rng.normal(mu, sigma));
        if (len != kRejected)
            lens.push_back(len);
    }
    double u1[kBatchPairs] = {}, u2[kBatchPairs] = {};
    while (lens.size() < count) {
        // No more pairs than the lengths still wanted can use, so only
        // the last pair's second half can go unused.
        size_t pairs = std::min(kBatchPairs, (count - lens.size() + 1) / 2);
        Rng before_last = rng;
        for (size_t i = 0; i < pairs; ++i) {
            if (i + 1 == pairs)
                before_last = rng;
            do {
                u1[i] = rng.uniformDouble();
            } while (u1[i] <= 0.0);
            u2[i] = rng.uniformDouble();
        }
        size_t used = pairLengths(u1, u2, pairs, mu, sigma, count, lens);
        if (used % 2 == 1) {
            // Redraw the last pair per draw: that leaves rng past its
            // uniforms, keeping its sine half as the spare.
            rng = before_last;
            rng.normal(mu, sigma);
        }
    }
    return lens;
}

/*
 * Gamma error bounds. Here mu = 0 and sigma = 1, so |x~ - x| <= 1e-13
 * and |x| < 8.6. Over the three modes c <= 0.2582, d <= 8/3 and
 * scale d <= 91.7; each bound adds the roundings of both evaluations.
 *
 * - w = 1 + c x: c 1e-13 + 4 roundings of values <= 3.3 < 3e-14.
 * - v = w^3: 3 w^2 3e-14 + roundings of v <= 34 < 1e-12; for
 *   w >= kMinCubeBase the relative error is below 3 * 64 * 3e-14 +
 *   4 * 2^-53 < 6e-12.
 * - Squeeze 1 - 0.0331 x^4: 0.1324 |x|^3 1e-13 + roundings of
 *   values <= 181 < 1e-11.
 * - Log test x^2 / 2 + d (1 - v + log v): x 1e-13 for the first term,
 *   and d (1e-12 + 6e-12 + libm's ulp) for the second: < 3e-11. Both
 *   sides take libm's log u of the same u.
 * - Length offset + scale d v: 91.7e-12 + roundings of values <= 3400
 *   < 1e-10, and L + 0.5 adds 6e-14 below 512.
 *
 * Every bound is at least ten times below kGammaMargin, so a decision
 * made outside the margin is the one x makes.
 */

/** A mode with Rng::gamma's per-draw constants hoisted. */
struct HoistedMode
{
    double offset;
    double d;
    double c;
    /** scale * d, the factor Rng::gamma's result scale * d * v takes. */
    double sd;
};

const HoistedMode *
hoistedModes()
{
    static const auto modes = [] {
        std::array<HoistedMode, kSpeechModeCount> m{};
        for (size_t i = 0; i < kSpeechModeCount; ++i) {
            const GammaMode &g = kSpeechModes[i];
            double d = g.shape - 1.0 / 3.0;
            m[i] = {g.offset, d, 1.0 / std::sqrt(9.0 * d), g.scale * d};
        }
        return m;
    }();
    return modes.data();
}

/** @return Index of the mode the mode uniform picks. */
inline size_t
modeOf(double pick)
{
    static_assert(kSpeechModeCount == 3);
    return static_cast<size_t>(pick >= kSpeechModes[0].below) +
        static_cast<size_t>(pick >= kSpeechModes[1].below);
}

/** One trial of Rng::gamma on x and u verbatim, then the length. */
int64_t
exactTrial(const HoistedMode &m, double x, double u)
{
    double v = 1.0 + m.c * x;
    if (v <= 0.0)
        return kTrialRejected;
    v = v * v * v;
    if (u < 1.0 - 0.0331 * x * x * x * x ||
        (u > 0.0 &&
         std::log(u) < 0.5 * x * x + m.d * (1.0 - v + std::log(v)))) {
        double len = m.offset + m.sd * v;
        return len > static_cast<double>(kSpeechMaxLen)
            ? kRejected
            : clampLen(len, kSpeechMinLen, kSpeechMaxLen);
    }
    return kTrialRejected;
}

/** exactTrial's decisions from x~, or kNearEdge inside a margin. */
inline int64_t
decide(const HoistedMode &m, double x, double u)
{
    double w = 1.0 + m.c * x;
    if (w < kMinCubeBase)
        return w <= -kGammaMargin ? kTrialRejected : kNearEdge;
    double v = w * w * w;
    double squeeze = 1.0 - 0.0331 * x * x * x * x;
    if (u >= squeeze - kGammaMargin) {
        if (u < squeeze + kGammaMargin)
            return kNearEdge;
        if (!(u > 0.0))
            return kTrialRejected;
        double log_u = std::log(u);
        double bound = 0.5 * x * x + m.d * (1.0 - v + std::log(v));
        if (log_u >= bound + kGammaMargin)
            return kTrialRejected;
        if (log_u > bound - kGammaMargin)
            return kNearEdge;
    }
    // Lengths change at the half-integers; kSpeechMaxLen rejects.
    double len = m.offset + m.sd * v;
    if (len > static_cast<double>(kSpeechMaxLen) + kGammaMargin)
        return kRejected;
    double h = len + 0.5;
    auto k = static_cast<int64_t>(h);
    double frac = h - static_cast<double>(k);
    if (frac < kGammaMargin || frac > 1.0 - kGammaMargin ||
        len > static_cast<double>(kSpeechMaxLen) - kGammaMargin)
        return kNearEdge;
    return k;
}

/**
 * One trial on the normal whose x~ is x: draw_u() draws the accept
 * uniform when Rng::gamma would, and exact_x() gives x exactly for a
 * trial that must be recomputed.
 */
template <typename ExactX, typename DrawU>
inline int64_t
trial(const HoistedMode &m, double x, ExactX exact_x, DrawU draw_u)
{
    double w = 1.0 + m.c * x;
    if (w <= -kGammaMargin)
        return kTrialRejected;
    if (w < kGammaMargin) [[unlikely]] {
        // Too close to 0 to tell from x~ whether u is drawn at all.
        double exact = exact_x();
        if (1.0 + m.c * exact <= 0.0)
            return kTrialRejected;
        return exactTrial(m, exact, draw_u());
    }
    double u = draw_u();
    int64_t len = decide(m, x, u);
    if (len == kNearEdge) [[unlikely]]
        len = exactTrial(m, exact_x(), u);
    return len;
}

/** @return The exact x of one half of pair (u1, u2), as Rng::normal. */
double
exactHalf(double u1, double u2, bool sine)
{
    NormalPair exact = exactPair(u1, u2, 0.0, 1.0);
    return sine ? exact.second : exact.first;
}

/**
 * count lengths of the LibriSpeech mixture: what the per-draw loop
 * `do v = offset + rng.gamma(shape, scale) for the picked mode;
 * while (v > 450); push(clampLen(v, 50, 450))` returns, with rng left
 * as that loop leaves it.
 */
std::vector<int64_t>
gammaLengths(Rng &rng, size_t count)
{
    std::vector<int64_t> lens;
    lens.reserve(count);
    if (count == 0)
        return lens;
    const Tables &t = tables();
    const HoistedMode *modes = hoistedModes();
    // A local copy keeps the generator's state out of memory.
    Rng r = rng;
    // The pair the normals come from: its uniforms, its sine half's x~
    // while that is the next normal, and r before the pair was drawn.
    Rng before_pair = r;
    double u1 = 0.0, u2 = 0.0, sine_x = 0.0;
    bool have_sine = false, sine_exact = false;
    if (r.spareNormalPending()) {
        // A spare left by an earlier call is the next normal; it is
        // exact already.
        sine_x = r.normal(0.0, 1.0);
        have_sine = sine_exact = true;
    }
    auto draw_u = [&r] { return r.uniformDouble(); };
    while (lens.size() < count) {
        const HoistedMode &m = modes[modeOf(r.uniformDouble())];
        int64_t len = kTrialRejected;
        do {
            bool sine = have_sine;
            double x = sine_x;
            if (have_sine) {
                have_sine = false;
            } else {
                before_pair = r;
                do {
                    u1 = r.uniformDouble();
                } while (u1 <= 0.0);
                u2 = r.uniformDouble();
                NormalPair p = approx(t, u1, u2, 0.0, 1.0);
                x = p.first;
                sine_x = p.second;
                have_sine = true;
                sine_exact = false;
            }
            auto exact_x = [&] {
                return sine && sine_exact ? x : exactHalf(u1, u2, sine);
            };
            len = trial(m, x, exact_x, draw_u);
        } while (len == kTrialRejected);
        if (len != kRejected)
            lens.push_back(len);
    }
    if (have_sine) {
        // Only the last length's accepted trial can leave a sine half,
        // and the one uniform after its pair is that trial's u: redraw
        // the pair per draw, which keeps the sine half as r's spare,
        // then the u.
        r = before_pair;
        r.normal(0.0, 1.0);
        r.uniformDouble();
    }
    rng = r;
    return lens;
}

} // namespace

NormalPair
approxPair(double u1, double u2, double mu, double sigma)
{
    return approx(tables(), u1, u2, mu, sigma);
}

NormalPair
exactPair(double u1, double u2, double mu, double sigma)
{
    BoxMuller pair = BoxMuller::of(u1, u2);
    return {pair.first(mu, sigma), mu + sigma * pair.spare()};
}

int64_t
cellLength(double x)
{
    return cellOf(tables(), x);
}

size_t
pairLengths(const double *u1, const double *u2, size_t pairs, double mu,
            double sigma, size_t want, std::vector<int64_t> &lens)
{
    panic_if(pairs > kBatchPairs, "pairLengths: %zu pairs > %zu", pairs,
             kBatchPairs);
    const Tables &t = tables();
    double x[2 * kBatchPairs] = {};
    for (size_t i = 0; i < pairs; ++i) {
        NormalPair p = approx(t, u1[i], u2[i], mu, sigma);
        x[2 * i] = p.first;
        x[2 * i + 1] = p.second;
    }
    size_t n = 0;
    for (; n < 2 * pairs && lens.size() < want; ++n) {
        int64_t len = cellOf(t, x[n]);
        if (len == kNearEdge) {
            NormalPair exact = exactPair(u1[n / 2], u2[n / 2], mu, sigma);
            len = exactLength(n % 2 == 0 ? exact.first : exact.second);
        }
        if (len != kRejected)
            lens.push_back(len);
    }
    return n;
}

int64_t
gammaDecision(size_t mode, double x, double u)
{
    panic_if(mode >= kSpeechModeCount, "gammaDecision: mode %zu", mode);
    return decide(hoistedModes()[mode], x, u);
}

int64_t
gammaTrial(size_t mode, double u1, double u2, bool sine, double u)
{
    panic_if(mode >= kSpeechModeCount, "gammaTrial: mode %zu", mode);
    NormalPair approx_x = approxPair(u1, u2, 0.0, 1.0);
    return trial(
        hoistedModes()[mode], sine ? approx_x.second : approx_x.first,
        [&] { return exactHalf(u1, u2, sine); }, [u] { return u; });
}

} // namespace lengthkernel

std::vector<int64_t>
librispeechLengths(Rng &rng, size_t count)
{
    return lengthkernel::gammaLengths(rng, count);
}

std::vector<int64_t>
iwsltLengths(Rng &rng, size_t count)
{
    // Broad log-normal body: median ~25 tokens, long tail.
    return lengthkernel::logNormalLengths(rng, count, 3.2, 0.70);
}

std::vector<int64_t>
wmtLengths(Rng &rng, size_t count)
{
    // Same range as IWSLT, slightly longer median (news text).
    return lengthkernel::logNormalLengths(rng, count, 3.35, 0.60);
}

} // namespace data
} // namespace seqpoint
