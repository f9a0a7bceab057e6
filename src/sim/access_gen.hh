/**
 * @file
 * Synthetic address-stream generators that mimic the memory behaviour
 * of the kernel classes the lowering library emits. Together with
 * CacheSim these validate the analytical cache model: the test suite
 * drives the same working sets through both and checks the hit-rate
 * power law.
 */

#ifndef SEQPOINT_SIM_ACCESS_GEN_HH
#define SEQPOINT_SIM_ACCESS_GEN_HH

#include <cstdint>
#include <functional>

#include "common/rng.hh"
#include "sim/cache_sim.hh"

namespace seqpoint {
namespace sim {

/** Callback invoked for each generated access. */
using AccessSink = std::function<void(uint64_t addr, bool write)>;

/**
 * Streaming access pattern: touch `bytes` bytes once, sequentially,
 * with `stride` between consecutive 4-byte elements.
 *
 * @param bytes Footprint in bytes.
 * @param stride Element stride in bytes (>= 4).
 * @param sink Receives each access.
 */
void genStreaming(uint64_t bytes, unsigned stride, const AccessSink &sink);

/**
 * Blocked-GEMM access pattern: walk C tiles; for each tile, walk the
 * K dimension in blocks, re-reading the A panel row by row and
 * streaming B panel rows (element granularity, 4 bytes, every 4th
 * row), then store the C tile. The A panel re-walks across the bj
 * tiles and the B panel re-walks across the bi tiles are what give a
 * blocked GEMM its cache reuse.
 *
 * @param m Rows of A/C.
 * @param n Cols of B/C.
 * @param k Inner dimension.
 * @param tile Tile edge in elements (e.g. 64).
 * @param sink Receives each access.
 */
void genBlockedGemm(uint64_t m, uint64_t n, uint64_t k, unsigned tile,
                    const AccessSink &sink);

/**
 * Hot/cold mixture: a fraction `hot_frac` of accesses target a
 * `hot_bytes` region (temporal locality), the rest sweep a large cold
 * region. Models embedding-table lookups.
 *
 * @param accesses Number of accesses to generate.
 * @param hot_bytes Size of the hot region.
 * @param cold_bytes Size of the cold region.
 * @param hot_frac Fraction of accesses landing in the hot region.
 * @param rng Random source.
 * @param sink Receives each access.
 */
void genHotCold(uint64_t accesses, uint64_t hot_bytes, uint64_t cold_bytes,
                double hot_frac, Rng &rng, const AccessSink &sink);

/**
 * Drive a pattern through a cache and return its measured hit rate.
 *
 * @param cache Cache to exercise (reset first; holds the statistics
 *              of the whole stream afterwards).
 * @param gen Invoked with a sink that feeds the cache.
 * @return Hit rate observed over the whole stream.
 */
double measureHitRate(CacheSim &cache,
                      const std::function<void(const AccessSink &)> &gen);

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_ACCESS_GEN_HH
