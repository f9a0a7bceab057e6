/**
 * @file
 * Trace-driven set-associative cache simulator with LRU replacement.
 * Used to validate the analytical cache model's capacity power law and
 * available for detailed single-kernel studies. It is not on the
 * timing path: kernel timing prices memory through the closed-form
 * model in cache_model.hh.
 */

#ifndef SEQPOINT_SIM_CACHE_SIM_HH
#define SEQPOINT_SIM_CACHE_SIM_HH

#include <cstdint>
#include <vector>

namespace seqpoint {
namespace sim {

/** Hit/miss statistics for a simulated cache. */
struct CacheStats {
    uint64_t accesses = 0;   ///< Total accesses observed.
    uint64_t hits = 0;       ///< Hits.
    uint64_t misses = 0;     ///< Misses (incl. compulsory).
    uint64_t evictions = 0;  ///< Lines evicted to make room.
    uint64_t writebacks = 0; ///< Dirty lines written back.

    /** @return hits / accesses; 0 when no accesses. */
    double hitRate() const;

    /** Field-wise equality. */
    bool operator==(const CacheStats &other) const = default;
};

/**
 * A single-level set-associative cache with true-LRU replacement and
 * write-back, write-allocate semantics.
 */
class CacheSim
{
  public:
    /**
     * Construct a cache.
     *
     * @param size_bytes Total capacity (must be a multiple of
     *                   line_bytes * assoc).
     * @param assoc Ways per set (>= 1).
     * @param line_bytes Line size, a power of two.
     */
    CacheSim(uint64_t size_bytes, unsigned assoc, unsigned line_bytes);

    /**
     * Perform one access.
     *
     * @param addr Byte address.
     * @param write True for a store (marks the line dirty).
     * @return True on hit.
     */
    bool access(uint64_t addr, bool write);

    /** Reset contents and statistics. */
    void reset();

    /** @return Accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /** @return Number of sets. */
    uint64_t numSets() const { return sets; }

    /** @return Capacity in bytes. */
    uint64_t sizeBytes() const { return size; }

    /** @return Ways per set. */
    unsigned assocWays() const { return assoc; }

    /** @return Line size in bytes. */
    unsigned lineSize() const { return lineBytes; }

  private:
    /** One cache line; lastUse is 0 exactly while the line is invalid. */
    struct Line {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    uint64_t size;
    unsigned assoc;
    unsigned lineBytes;
    unsigned lineShift;
    uint64_t sets;

    std::vector<Line> lines; ///< Indexed set * assoc + way.
    uint64_t useClock = 0;
    CacheStats stats_;
};

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_CACHE_SIM_HH
