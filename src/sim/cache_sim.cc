/**
 * @file
 * Set-associative cache simulator implementation.
 */

#include "sim/cache_sim.hh"

#include <bit>

#include "common/logging.hh"

namespace seqpoint {
namespace sim {

double
CacheStats::hitRate() const
{
    return accesses ? static_cast<double>(hits) /
        static_cast<double>(accesses) : 0.0;
}

CacheSim::CacheSim(uint64_t size_bytes, unsigned ways, unsigned line_bytes)
    : size(size_bytes), assoc(ways), lineBytes(line_bytes)
{
    panic_if(ways == 0, "CacheSim: zero associativity");
    panic_if(line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0,
             "CacheSim: line size must be a power of two");
    panic_if(size_bytes == 0, "CacheSim: zero capacity");
    panic_if(size_bytes % (static_cast<uint64_t>(line_bytes) * ways) != 0,
             "CacheSim: capacity not divisible by line*ways");

    lineShift = static_cast<unsigned>(std::countr_zero(line_bytes));
    sets = size_bytes / (static_cast<uint64_t>(line_bytes) * ways);
    lines.assign(sets * ways, Line{});
}

bool
CacheSim::access(uint64_t addr, bool write)
{
    ++stats_.accesses;
    ++useClock;

    uint64_t line_addr = addr >> lineShift;
    uint64_t set = line_addr % sets;
    uint64_t tag = line_addr / sets;
    Line *ways = &lines[set * assoc];

    // Probe for a hit.
    for (unsigned w = 0; w < assoc; ++w) {
        if (ways[w].valid && ways[w].tag == tag) {
            ways[w].lastUse = useClock;
            ways[w].dirty |= write;
            ++stats_.hits;
            return true;
        }
    }

    ++stats_.misses;

    // Choose a victim: an invalid way, else true-LRU. Invalid lines
    // keep lastUse == 0 (valid lines are always >= 1), so a single
    // first-minimum pass picks the first invalid way when one exists
    // and the true-LRU way otherwise.
    Line *victim = &ways[0];
    for (unsigned w = 1; w < assoc; ++w) {
        if (ways[w].lastUse < victim->lastUse)
            victim = &ways[w];
    }

    if (victim->valid) {
        ++stats_.evictions;
        if (victim->dirty)
            ++stats_.writebacks;
    }
    *victim = Line{tag, useClock, true, write};
    return false;
}

void
CacheSim::reset()
{
    lines.assign(lines.size(), Line{});
    useClock = 0;
    stats_ = CacheStats{};
}

} // namespace sim
} // namespace seqpoint
