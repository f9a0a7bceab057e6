/**
 * @file
 * Autotuner implementation.
 */

#include "nn/autotune.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "nn/kernel_gen.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace nn {

const std::vector<GemmVariant> &
gemmVariantMenu()
{
    static const std::vector<GemmVariant> menu = {
        {128, 128, 16},
        {128, 64, 16},
        {64, 64, 16},
        {64, 32, 16},
        {32, 32, 16},
        {16, 16, 16},
    };
    return menu;
}

Autotuner::Autotuner(Mode tune_mode, const sim::Gpu *device)
    : mode(tune_mode), gpu(device)
{
    fatal_if(tune_mode == Mode::Measured && device == nullptr,
             "Measured autotune mode requires a device");
    if (tune_mode != Mode::Measured)
        return;
    // A GEMM's per-CU working set and L1 reuse depend only on its
    // tile, so each menu tile's L1 hit fraction on this device is the
    // same for every shape: take it from the tile's own descriptor.
    for (const GemmVariant &v : gemmVariantMenu()) {
        tileL1Hit.push_back(sim::l1HitFraction(
            gemmKernelForVariant(sim::KernelStem(), 1, 1, 1, v),
            gpu->config()));
    }
}

const GemmVariant &
Autotuner::select(int64_t m, int64_t n, int64_t k)
{
    panic_if(m <= 0 || n <= 0 || k <= 0,
             "Autotuner: non-positive GEMM dims %lld x %lld x %lld",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k));

    ShapeKey key{m, n, k};

    // std::map nodes are stable, so the returned reference survives
    // later insertions by other threads once the lock is released.
    {
        MutexLock lock(mu);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second.variant;
    }

    // Tune outside the lock so an untuned shape doesn't serialize
    // every concurrent select(). Both policies are pure functions of
    // the shape, so racing threads compute identical entries and
    // emplace keeps the first.
    Entry chosen = (mode == Mode::Heuristic)
        ? Entry{chooseHeuristic(m, n, k), 0.0}
        : chooseMeasured(m, n, k);

    MutexLock lock(mu);
    auto [pos, inserted] = cache.emplace(key, chosen);
    (void)inserted;
    return pos->second.variant;
}

double
Autotuner::tuningCostSec() const
{
    MutexLock lock(mu);
    double total = 0.0;
    for (const auto &[key, entry] : cache)
        total += entry.costSec;
    return total;
}

size_t
Autotuner::cacheSize() const
{
    MutexLock lock(mu);
    return cache.size();
}

std::vector<AutotuneEntry>
Autotuner::snapshotEntries() const
{
    MutexLock lock(mu);
    std::vector<AutotuneEntry> out;
    out.reserve(cache.size());
    for (const auto &[key, entry] : cache) {
        out.push_back(AutotuneEntry{std::get<0>(key), std::get<1>(key),
                                    std::get<2>(key), entry.variant,
                                    entry.costSec});
    }
    return out;
}

void
Autotuner::seed(const std::vector<AutotuneEntry> &entries)
{
    MutexLock lock(mu);
    for (const AutotuneEntry &e : entries) {
        cache.emplace(ShapeKey{e.m, e.n, e.k},
                      Entry{e.variant, e.costSec});
    }
}

GemmVariant
Autotuner::chooseHeuristic(int64_t m, int64_t n, int64_t k) const
{
    // Cost model: blocked-GEMM memory traffic plus a padding-waste
    // penalty for tiles that overhang the matrix edges. Mirrors what
    // rocBLAS' shape heuristics optimise for.
    const auto &menu = gemmVariantMenu();
    double best_cost = 0.0;
    const GemmVariant *best = nullptr;

    for (const GemmVariant &v : menu) {
        double nb_m = std::ceil(static_cast<double>(m) / v.tileM);
        double nb_n = std::ceil(static_cast<double>(n) / v.tileN);
        double traffic =
            static_cast<double>(m) * static_cast<double>(k) * nb_n +
            static_cast<double>(k) * static_cast<double>(n) * nb_m;
        double padded = nb_m * v.tileM * nb_n * v.tileN;
        double waste = padded / (static_cast<double>(m) *
            static_cast<double>(n));
        double cost = traffic * waste;
        if (best == nullptr || cost < best_cost) {
            best = &v;
            best_cost = cost;
        }
    }
    return *best;
}

Autotuner::Entry
Autotuner::chooseMeasured(int64_t m, int64_t n, int64_t k) const
{
    // Probes go straight to the timing model, not through the device:
    // the losing variants never launch for real, so they stay out of
    // its timing cache. A probe's repeat is 1, and kernelTimeSec()
    // given the tile's L1 hit fraction is timeKernel()'s time, so each
    // probe costs exactly what Gpu::execute() would report; the winner
    // is timed again on its first real launch.
    static const sim::KernelStem probe("autotune_probe");
    const auto &menu = gemmVariantMenu();
    const sim::GpuConfig &cfg = gpu->config();
    double best_time = 0.0;
    double shape_cost = 0.0;
    const GemmVariant *best = nullptr;

    for (size_t i = 0; i < menu.size(); ++i) {
        double t = sim::kernelTimeSec(
            gemmKernelForVariant(probe, m, n, k, menu[i]), cfg,
            tileL1Hit[i]);
        shape_cost += t;
        if (best == nullptr || t < best_time) {
            best = &menu[i];
            best_time = t;
        }
    }
    return Entry{*best, shape_cost};
}

void
Autotuner::reset()
{
    MutexLock lock(mu);
    cache.clear();
}

void
encodeAutotuneEntry(ByteWriter &w, const AutotuneEntry &e)
{
    w.i64(e.m);
    w.i64(e.n);
    w.i64(e.k);
    w.u32(e.variant.tileM);
    w.u32(e.variant.tileN);
    w.u32(e.variant.tileK);
    w.f64(e.costSec);
}

AutotuneEntry
decodeAutotuneEntry(ByteReader &r)
{
    AutotuneEntry e;
    e.m = r.i64();
    e.n = r.i64();
    e.k = r.i64();
    e.variant.tileM = r.u32();
    e.variant.tileN = r.u32();
    e.variant.tileK = r.u32();
    e.costSec = r.f64();
    return e;
}

namespace {

/** Bit-pattern image of a double: a deterministic total order. */
inline uint64_t
orderBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/**
 * Canonical order for the packed section: the tuner's shape key,
 * then the variant and cost so the order is total for any input
 * (snapshotEntries() never repeats a shape, but the codec must be
 * canonical for whatever the fuzzer decodes).
 */
bool
entryLess(const AutotuneEntry &a, const AutotuneEntry &b)
{
    auto key = [](const AutotuneEntry &e) {
        return std::tuple(e.m, e.n, e.k, e.variant.tileM,
                          e.variant.tileN, e.variant.tileK,
                          orderBits(e.costSec));
    };
    return key(a) < key(b);
}

} // anonymous namespace

void
encodeAutotuneSection(ByteWriter &w,
                      const std::vector<AutotuneEntry> &entries)
{
    std::vector<const AutotuneEntry *> order;
    order.reserve(entries.size());
    // seqlint:canonical-order -- `entries` is the caller's vector
    // (any order); the sort below canonicalises before encoding.
    for (const AutotuneEntry &e : entries)
        order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const AutotuneEntry *a, const AutotuneEntry *b) {
                  return entryLess(*a, *b);
              });

    w.u64(order.size());
    AutotuneEntry prev; // zero deltas for the first entry
    for (const AutotuneEntry *ep : order) {
        const AutotuneEntry &e = *ep;
        w.vi64(e.m - prev.m);
        w.vi64(e.n - prev.n);
        w.vi64(e.k - prev.k);
        w.vi64(static_cast<int64_t>(e.variant.tileM) -
               static_cast<int64_t>(prev.variant.tileM));
        w.vi64(static_cast<int64_t>(e.variant.tileN) -
               static_cast<int64_t>(prev.variant.tileN));
        w.vi64(static_cast<int64_t>(e.variant.tileK) -
               static_cast<int64_t>(prev.variant.tileK));
        w.f64Packed(e.costSec, prev.costSec);
        prev = e;
    }
}

std::vector<AutotuneEntry>
decodeAutotuneSection(ByteReader &r)
{
    uint64_t n = r.u64();
    std::vector<AutotuneEntry> out;
    // Bound the up-front allocation by what the payload could
    // possibly hold: an entry is at least 7 wire bytes (six 1-byte
    // varints plus the cost tag byte), so a crafted count can never
    // amplify a small file into a huge reserve -- it runs into the
    // reader's truncation error instead.
    out.reserve(static_cast<size_t>(
        std::min<uint64_t>(n, r.remaining() / 7)));
    AutotuneEntry prev;
    for (uint64_t i = 0; i < n; ++i) {
        AutotuneEntry e;
        // addWrap: corrupted deltas must not overflow into UB. The
        // tile fields reconstruct through the same wrapping add and
        // truncate to their unsigned width.
        e.m = addWrap(prev.m, r.vi64());
        e.n = addWrap(prev.n, r.vi64());
        e.k = addWrap(prev.k, r.vi64());
        e.variant.tileM = static_cast<unsigned>(static_cast<uint64_t>(
            addWrap(static_cast<int64_t>(prev.variant.tileM),
                    r.vi64())));
        e.variant.tileN = static_cast<unsigned>(static_cast<uint64_t>(
            addWrap(static_cast<int64_t>(prev.variant.tileN),
                    r.vi64())));
        e.variant.tileK = static_cast<unsigned>(static_cast<uint64_t>(
            addWrap(static_cast<int64_t>(prev.variant.tileK),
                    r.vi64())));
        e.costSec = r.f64Packed(prev.costSec);
        out.push_back(e);
        prev = e;
    }
    return out;
}

} // namespace nn
} // namespace seqpoint
