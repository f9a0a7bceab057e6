/**
 * @file
 * Synthetic address-stream generators.
 */

#include "sim/access_gen.hh"

#include <algorithm>

#include "common/logging.hh"

namespace seqpoint {
namespace sim {

namespace {

/** Emit `count` reads or writes at `first + i * 4`. */
void
walkElements(uint64_t first, uint64_t count, bool write,
             const AccessSink &sink)
{
    for (uint64_t i = 0; i < count; ++i)
        sink(first + i * 4, write);
}

} // anonymous namespace

void
genStreaming(uint64_t bytes, unsigned stride, const AccessSink &sink)
{
    panic_if(stride < 4, "genStreaming: stride below element size");
    for (uint64_t addr = 0; addr < bytes; addr += stride)
        sink(addr, false);
}

void
genBlockedGemm(uint64_t m, uint64_t n, uint64_t k, unsigned tile,
               const AccessSink &sink)
{
    panic_if(tile == 0, "genBlockedGemm: zero tile");
    constexpr uint64_t elem = 4;
    constexpr uint64_t kblock = 64; ///< K elements per inner block.
    // Address map: A at 0, B after A, C after B.
    uint64_t base_a = 0;
    uint64_t base_b = m * k * elem;
    uint64_t base_c = base_b + k * n * elem;

    uint64_t mt = (m + tile - 1) / tile;
    uint64_t nt = (n + tile - 1) / tile;

    for (uint64_t bi = 0; bi < mt; ++bi) {
        for (uint64_t bj = 0; bj < nt; ++bj) {
            uint64_t i_end = std::min<uint64_t>((bi + 1) * tile, m);
            uint64_t j_end = std::min<uint64_t>((bj + 1) * tile, n);
            uint64_t j_cnt = j_end - bj * tile;
            // Walk the K dimension in blocks: re-read the A panel
            // row by row, stream the B panel rows (every 4th row,
            // modelling the unrolled k loop).
            for (uint64_t kk0 = 0; kk0 < k; kk0 += kblock) {
                uint64_t kb_end = std::min<uint64_t>(kk0 + kblock, k);
                for (uint64_t i = bi * tile; i < i_end; ++i)
                    walkElements(base_a + (i * k + kk0) * elem,
                                 kb_end - kk0, false, sink);
                for (uint64_t kk = kk0; kk < kb_end; kk += 4)
                    walkElements(base_b + (kk * n + bj * tile) * elem,
                                 j_cnt, false, sink);
            }
            for (uint64_t i = bi * tile; i < i_end; ++i)
                walkElements(base_c + (i * n + bj * tile) * elem, j_cnt,
                             true, sink);
        }
    }
}

void
genHotCold(uint64_t accesses, uint64_t hot_bytes, uint64_t cold_bytes,
           double hot_frac, Rng &rng, const AccessSink &sink)
{
    panic_if(hot_frac < 0.0 || hot_frac > 1.0,
             "genHotCold: hot_frac out of [0,1]");
    panic_if(hot_bytes < 64 || cold_bytes < 64,
             "genHotCold: regions too small");
    for (uint64_t i = 0; i < accesses; ++i) {
        bool hot = rng.uniformDouble() < hot_frac;
        uint64_t region = hot ? hot_bytes : cold_bytes;
        uint64_t offset = hot ? 0 : hot_bytes;
        uint64_t addr = offset + static_cast<uint64_t>(
            rng.uniformInt(0, static_cast<int64_t>(region / 64 - 1))) * 64;
        sink(addr, false);
    }
}

double
measureHitRate(CacheSim &cache,
               const std::function<void(const AccessSink &)> &gen)
{
    cache.reset();
    gen([&cache](uint64_t addr, bool write) { cache.access(addr, write); });
    return cache.stats().hitRate();
}

} // namespace sim
} // namespace seqpoint
