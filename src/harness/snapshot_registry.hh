/**
 * @file
 * Persistent snapshot registry: the process-wide (and optionally
 * on-disk) cache of ModelSnapshot cold starts, keyed by the full
 * identity the snapshotted state is a pure function of -- workload,
 * the configuration's sim::encodeGpuConfig() bytes (as hex, so two
 * configs share a snapshot only when every field matches bit for
 * bit), and the run-parameter digest. One build of a (workload,
 * configuration) pair is paid once, then every later consumer --
 * concurrent scheduler cells, sibling fig benches in the same
 * process, the query service, or a different bench binary in a later
 * CI run -- reads it bit-identically.
 */

#ifndef SEQPOINT_HARNESS_SNAPSHOT_REGISTRY_HH
#define SEQPOINT_HARNESS_SNAPSHOT_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "core/seqpoint.hh"
#include "harness/experiment.hh"
#include "harness/snapshot_io.hh"

namespace seqpoint {
namespace harness {

/** Where the registry's snapshots came from, for benches and tests. */
struct SnapshotRegistryStats {
    uint64_t memoryHits = 0; ///< Served from the in-process cache.
    uint64_t diskHits = 0;   ///< Loaded (and validated) from the store.
    uint64_t builds = 0;     ///< Built by running the cold start.
    uint64_t storeEvictions = 0; ///< Store files removed by the cap.
    uint64_t quarantines = 0; ///< Bad store files set aside (.corrupt).
};

/**
 * Get-or-build cache of immutable snapshots.
 *
 * Thread-safe with single-flight semantics: concurrent acquire()
 * calls for the same key run the expensive build exactly once (the
 * rest block until it lands), while different keys build in parallel.
 * With a store directory attached, every build is persisted and every
 * miss consults the store first, so cold starts are shared across
 * processes and (via CI caching) across runs. A store file is adopted
 * only after strict validation -- format magic, build identity,
 * checksum, and a full identity match against the requested key (see
 * snapshot_io.hh).
 *
 * A file stamped by another build is a plain miss: it is deleted and
 * the snapshot rebuilt, in either mode. Any other file that fails
 * validation never stops the run by default: the store is a cache,
 * so a corrupt, truncated or foreign entry is quarantined (renamed to
 * <file>.corrupt, preserving the evidence while freeing the name) and
 * the snapshot is rebuilt cold, exactly as if the store had missed.
 * setStrict(true) restores the fail-fast behaviour -- CI jobs that
 * own their store want a bad file to be a loud bug, not a silent
 * rebuild.
 */
class SnapshotRegistry
{
  public:
    /**
     * Construct a registry.
     *
     * @param dir On-disk store directory (created if missing); empty
     *            for an in-process-only registry. Store files named
     *            with another build's identity are deleted on open
     *            (otherBuildsStoreFile()): no registry of this build
     *            would ever read them.
     * @param store_cap_bytes Size cap on the store's snapshot files;
     *            0 means unbounded. When a save pushes the store
     *            past the cap, the least-recently-used files
     *            (LRU by mtime; disk hits refresh a file's mtime)
     *            are evicted until it fits again -- the file just
     *            written is never evicted, so a cap below one
     *            snapshot degrades to keep-latest-only.
     */
    explicit SnapshotRegistry(std::string dir = "",
                              uint64_t store_cap_bytes = 0);

    /** @return The store directory ("" when memory-only). */
    const std::string &storeDir() const { return dir; }

    /** @return The store size cap in bytes (0 = unbounded). */
    uint64_t storeCapBytes() const { return storeCap; }

    /**
     * Get the snapshot for `key`, building it with `build` on a miss
     * (single-flight per key). The build result is cached in memory
     * and, when a store is attached, persisted to disk.
     *
     * @param key Full snapshot identity.
     * @param build Cold-start builder; must produce a snapshot whose
     *              identity matches `key` (checked, fatal otherwise).
     * @return The shared, immutable snapshot.
     */
    std::shared_ptr<const ModelSnapshot>
    acquire(const SnapshotKey &key,
            const std::function<std::shared_ptr<const ModelSnapshot>()>
                &build);

    /**
     * Convenience acquire for (workload factory, configuration): the
     * builder constructs a fresh Experiment for `make()` and freezes
     * Experiment::snapshot(cfg). Builds one workload instance up
     * front to derive the key; prefer the Workload overload when the
     * caller already holds an equivalent instance.
     *
     * @param make Workload factory.
     * @param cfg Configuration to snapshot.
     * @param profile_threads Inner profiling-sweep width for a build
     *                        (0 = hardware concurrency; never changes
     *                        results).
     * @param opts SeqPoint tunables of the consuming experiments.
     * @param built Set to true when this call built the snapshot
     *              (left alone on a hit); may be null.
     */
    std::shared_ptr<const ModelSnapshot>
    acquire(const WorkloadFactory &make, const sim::GpuConfig &cfg,
            unsigned profile_threads = 0,
            const core::SeqPointOptions &opts =
                Experiment::defaultOptions(),
            bool *built = nullptr);

    /**
     * Acquire keyed off an already-built workload: `wl` supplies the
     * identity (no construction cost on a hit -- the common case for
     * warmed scheduler cells, which hold their own instance already),
     * `make` builds a fresh equivalent only when the snapshot has to
     * be built.
     *
     * @param wl Workload identity (must be equivalent to make()).
     * @param make Factory used for a cold build.
     * @param cfg Configuration to snapshot.
     * @param profile_threads Inner profiling-sweep width for a build.
     * @param opts SeqPoint tunables of the consuming experiments.
     */
    std::shared_ptr<const ModelSnapshot>
    acquire(const Workload &wl, const WorkloadFactory &make,
            const sim::GpuConfig &cfg, unsigned profile_threads = 0,
            const core::SeqPointOptions &opts =
                Experiment::defaultOptions());

    /**
     * Look up `key` without building: the in-process cache first,
     * then the store. A store file found under the key's name is
     * validated like any other load (a bad file is quarantined, or
     * fatal in strict mode).
     *
     * @param key Full snapshot identity.
     * @return The snapshot, or null when the registry has nothing.
     */
    std::shared_ptr<const ModelSnapshot> cached(const SnapshotKey &key);

    /**
     * Select the response to a store file that fails validation:
     * quarantine-and-rebuild (false, the default) or fatal (true).
     * Atomic, so flipping it while workers are mid-lookup is safe
     * (each lookup observes one coherent policy).
     *
     * @param strict True restores fail-fast validation.
     */
    void
    setStrict(bool strict)
    {
        strict_.store(strict, std::memory_order_relaxed);
    }

    /** @return True when a bad store file is fatal. */
    bool
    strict() const
    {
        return strict_.load(std::memory_order_relaxed);
    }

    /**
     * @return Hit/build accounting so far: a consistent snapshot of
     *         the counters (re-read until stable, so a reader racing
     *         the worker threads never observes a torn mix of counter
     *         generations; the counters themselves are atomics, so
     *         the hot-path increments stay lock-free).
     */
    SnapshotRegistryStats stats() const;

    /**
     * Persist every in-memory snapshot the store does not already
     * hold (a build whose save failed or was faulted away leaves the
     * memory cache ahead of the disk store). Called by the service's
     * graceful drain; a no-op without a store directory. Save
     * failures are warned about and skipped, never fatal.
     *
     * @return Number of snapshots written.
     */
    std::size_t flushToStore();

  private:
    /** One key's slot; its mutex serialises the single-flight build. */
    struct Slot {
        Mutex mu;
        std::shared_ptr<const ModelSnapshot> snap SEQ_GUARDED_BY(mu);
    };

    std::string dir;     ///< Immutable after the ctor.
    uint64_t storeCap = 0; ///< Immutable after the ctor.
    std::atomic<bool> strict_{false};
    /**
     * Lock order: `mu` (slot-table) is only ever held alone;
     * a slot's `mu` may be held while taking `storeMu` (save-side
     * eviction), never the reverse.
     */
    mutable Mutex mu;
    /** Serialises store-wide eviction scans (guards the directory,
     *  not a member, so it carries no SEQ_GUARDED_BY data). */
    Mutex storeMu;
    std::map<std::string, std::shared_ptr<Slot>> slots
        SEQ_GUARDED_BY(mu);

    /**
     * Lock-free statistics: each counter is incremented atomically on
     * its hot path, and `statsGen` is bumped around every increment
     * so stats() can detect (and retry through) a torn multi-counter
     * read.
     */
    struct AtomicStats {
        std::atomic<uint64_t> memoryHits{0};
        std::atomic<uint64_t> diskHits{0};
        std::atomic<uint64_t> builds{0};
        std::atomic<uint64_t> storeEvictions{0};
        std::atomic<uint64_t> quarantines{0};
    };
    mutable AtomicStats stats_;
    mutable std::atomic<uint64_t> statsGen{0};

    /** Atomically add `n` to `counter` and bump the generation. */
    void
    bumpStat(std::atomic<uint64_t> &counter, uint64_t n = 1)
    {
        counter.fetch_add(n, std::memory_order_relaxed);
        statsGen.fetch_add(1, std::memory_order_release);
    }

    std::shared_ptr<Slot> slotFor(const SnapshotKey &key)
        SEQ_EXCLUDES(mu);
    std::string pathFor(const SnapshotKey &key) const;

    /**
     * Enforce the store cap after a save: while the store's .bin
     * files exceed it, remove the oldest-mtime file other than
     * `just_written`. Filesystem errors (e.g. a concurrent process
     * racing on the same store) are tolerated, never fatal.
     */
    void enforceStoreCap(const std::string &just_written);

    /**
     * Refresh `path`'s mtime so LRU eviction tracks use, not just
     * creation (called on disk hits; errors ignored).
     */
    static void touchStoreFile(const std::string &path);

    /**
     * Memory-then-store lookup for `key`; the caller must hold the
     * slot's mutex. Bumps the hit statistics; returns null on a full
     * miss. Another build's store file is deleted; any other file
     * that fails validation is quarantined (fatal in strict mode
     * instead). Either is reported as a miss.
     */
    std::shared_ptr<const ModelSnapshot>
    lookupLocked(Slot &slot, const SnapshotKey &key)
        SEQ_REQUIRES(slot.mu);

    /**
     * Set a failed store file aside as `path`.corrupt (removing it
     * when the rename loses a race), so the name is free for the
     * rebuild's save and the bytes survive for a post-mortem.
     */
    void quarantine(const std::string &path);
};

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_SNAPSHOT_REGISTRY_HH
