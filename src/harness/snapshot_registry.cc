/**
 * @file
 * Snapshot registry implementation.
 */

#include "harness/snapshot_registry.hh"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "common/logging.hh"

namespace seqpoint {
namespace harness {

namespace fs = std::filesystem;

SnapshotRegistry::SnapshotRegistry(std::string store_dir,
                                   uint64_t store_cap_bytes)
    : dir(std::move(store_dir)), storeCap(store_cap_bytes)
{
    if (dir.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatal_if(static_cast<bool>(ec),
             "SnapshotRegistry: cannot create store directory '%s': %s",
             dir.c_str(), ec.message().c_str());

    // Another build's files are never opened -- their names carry
    // that build's identity -- so each source edit would leave a
    // full set behind in an uncapped store. Best-effort: a file a
    // concurrent registry already removed is simply gone.
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (otherBuildsStoreFile(entry.path().filename().string())) {
            std::error_code rec;
            fs::remove(entry.path(), rec);
        }
    }
}

void
SnapshotRegistry::touchStoreFile(const std::string &path)
{
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    // Best-effort: a read-only store still serves hits, it just
    // ages by write time instead of use time.
}

void
SnapshotRegistry::enforceStoreCap(const std::string &just_written)
{
    if (storeCap == 0)
        return;
    MutexLock lock(storeMu);

    struct StoreFile {
        std::string path;
        fs::file_time_type mtime;
        uint64_t bytes;
    };
    std::vector<StoreFile> files;
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() != ".bin")
            continue; // skip .tmp files of in-flight writers
        std::error_code fec;
        uint64_t bytes = entry.file_size(fec);
        fs::file_time_type mtime = entry.last_write_time(fec);
        if (fec)
            continue; // raced with a concurrent remove
        files.push_back({entry.path().string(), mtime, bytes});
        total += bytes;
    }

    std::sort(files.begin(), files.end(),
              [](const StoreFile &a, const StoreFile &b) {
                  return a.mtime < b.mtime;
              });

    uint64_t evicted = 0;
    for (const StoreFile &f : files) {
        if (total <= storeCap)
            break;
        // Never evict the snapshot this call just persisted: with a
        // cap below one file the store degrades to keep-latest-only
        // instead of thrashing what the caller is about to reuse.
        if (f.path == just_written)
            continue;
        std::error_code rec;
        if (fs::remove(f.path, rec) && !rec) {
            total -= f.bytes;
            ++evicted;
        }
    }
    if (evicted)
        bumpStat(stats_.storeEvictions, evicted);
}

std::shared_ptr<SnapshotRegistry::Slot>
SnapshotRegistry::slotFor(const SnapshotKey &key)
{
    MutexLock lock(mu);
    std::shared_ptr<Slot> &slot = slots[key.cacheKey()];
    if (!slot)
        slot = std::make_shared<Slot>();
    return slot;
}

std::string
SnapshotRegistry::pathFor(const SnapshotKey &key) const
{
    return (fs::path(dir) / key.fileName()).string();
}

void
SnapshotRegistry::quarantine(const std::string &path)
{
    std::error_code ec;
    fs::rename(path, path + ".corrupt", ec);
    if (ec) {
        // The rename can lose to a concurrent quarantine or eviction;
        // make sure the bad name is gone either way.
        fs::remove(path, ec);
    }
    bumpStat(stats_.quarantines);
}

std::shared_ptr<const ModelSnapshot>
SnapshotRegistry::lookupLocked(Slot &slot, const SnapshotKey &key)
{
    if (slot.snap) {
        bumpStat(stats_.memoryHits);
        return slot.snap;
    }
    if (!dir.empty()) {
        std::string path = pathFor(key);
        // Validated against the full key: a wrong file under this
        // name is never silently adopted. A file that cannot be
        // opened is a plain miss -- a concurrent registry's eviction
        // (or an in-flight writer) may remove or not yet have
        // produced it between any existence check and the open, and
        // store races are tolerated, never fatal.
        Status injected = FaultInjector::instance().check(
            "registry.load", key.fileName());
        auto result = injected.ok()
            ? tryLoadSnapshot(path, &key)
            : Result<std::shared_ptr<const ModelSnapshot>>(injected);
        if (result.ok()) {
            if (auto snap = result.take()) {
                slot.snap = std::move(snap);
                // Refresh recency so a capped store evicts cold
                // entries, not the ones CI replays every run.
                touchStoreFile(path);
                bumpStat(stats_.diskHits);
                return slot.snap;
            }
        } else if (result.status().code() ==
                   ErrorCode::VersionMismatch) {
            // Another build's file under this name is stale, not
            // corrupt: a plain miss. Drop it so the rebuild's save
            // gets the name.
            std::error_code ec;
            fs::remove(path, ec);
        } else if (strict()) {
            fatal("%s", result.status().message().c_str());
        } else {
            // The store is a cache: a bad entry costs a rebuild,
            // never the run. Move it aside so the rebuild's save gets
            // a clean name and the bytes stay inspectable.
            warn("SnapshotRegistry: rebuilding '%s' cold: %s",
                 key.workload.c_str(),
                 result.status().toString().c_str());
            quarantine(path);
        }
    }
    return nullptr;
}

std::shared_ptr<const ModelSnapshot>
SnapshotRegistry::acquire(
    const SnapshotKey &key,
    const std::function<std::shared_ptr<const ModelSnapshot>()> &build)
{
    std::shared_ptr<Slot> slot = slotFor(key);

    // Single-flight: the first caller holds the slot through its
    // build; same-key callers block here and find the result, while
    // other keys proceed on their own slots.
    MutexLock slot_lock(slot->mu);
    if (auto snap = lookupLocked(*slot, key))
        return snap;

    std::shared_ptr<const ModelSnapshot> snap = build();
    panic_if(!snap, "SnapshotRegistry: builder returned null for "
             "workload '%s'", key.workload.c_str());
    panic_if(!(snapshotKeyOf(*snap) == key),
             "SnapshotRegistry: builder produced a snapshot for a "
             "different identity than requested (workload '%s')",
             key.workload.c_str());
    if (!dir.empty()) {
        std::string path = pathFor(key);
        // Persisting is an optimisation: an injected (or real) save
        // failure costs later processes a rebuild, nothing else.
        Status injected = FaultInjector::instance().check(
            "registry.save", key.fileName());
        if (!injected.ok()) {
            warn("SnapshotRegistry: not persisting '%s': %s",
                 key.workload.c_str(), injected.toString().c_str());
        } else if (saveSnapshot(*snap, path)) {
            enforceStoreCap(path);
        }
    }
    slot->snap = std::move(snap);
    bumpStat(stats_.builds);
    return slot->snap;
}

std::shared_ptr<const ModelSnapshot>
SnapshotRegistry::acquire(const WorkloadFactory &make,
                          const sim::GpuConfig &cfg,
                          unsigned profile_threads,
                          const core::SeqPointOptions &opts, bool *built)
{
    Workload wl = make();
    SnapshotKey key = snapshotKeyFor(wl, opts, cfg);
    // The workload is moved into the builder's experiment; on a hit
    // the builder never runs and the instance is simply dropped.
    return acquire(key, [&wl, &cfg, profile_threads, &opts, built] {
        Experiment exp(std::move(wl), opts);
        exp.setProfileThreads(
            profile_threads
                ? profile_threads
                : std::max(1u, std::thread::hardware_concurrency()));
        auto snap = exp.snapshot(cfg);
        if (built)
            *built = true;
        return snap;
    });
}

std::shared_ptr<const ModelSnapshot>
SnapshotRegistry::acquire(const Workload &wl,
                          const WorkloadFactory &make,
                          const sim::GpuConfig &cfg,
                          unsigned profile_threads,
                          const core::SeqPointOptions &opts)
{
    // Key from the caller's instance: a hit costs no workload
    // construction; only a cold build runs the factory.
    SnapshotKey key = snapshotKeyFor(wl, opts, cfg);
    return acquire(key, [&make, &cfg, profile_threads, &opts] {
        Experiment exp(make(), opts);
        exp.setProfileThreads(
            profile_threads
                ? profile_threads
                : std::max(1u, std::thread::hardware_concurrency()));
        return exp.snapshot(cfg);
    });
}

std::shared_ptr<const ModelSnapshot>
SnapshotRegistry::cached(const SnapshotKey &key)
{
    std::shared_ptr<Slot> slot = slotFor(key);
    MutexLock slot_lock(slot->mu);
    return lookupLocked(*slot, key);
}

SnapshotRegistryStats
SnapshotRegistry::stats() const
{
    // Counters are independent atomics, so a single pass could mix
    // generations (e.g. see a build's save-side eviction without the
    // build itself). Re-read until the generation stamp is stable and
    // even the whole way through; under a constant increment storm,
    // settle for the freshest full pass rather than spinning forever.
    SnapshotRegistryStats out;
    for (int attempt = 0; attempt < 64; ++attempt) {
        uint64_t before = statsGen.load(std::memory_order_acquire);
        out.memoryHits = stats_.memoryHits.load(std::memory_order_relaxed);
        out.diskHits = stats_.diskHits.load(std::memory_order_relaxed);
        out.builds = stats_.builds.load(std::memory_order_relaxed);
        out.storeEvictions =
            stats_.storeEvictions.load(std::memory_order_relaxed);
        out.quarantines =
            stats_.quarantines.load(std::memory_order_relaxed);
        if (statsGen.load(std::memory_order_acquire) == before)
            break;
    }
    return out;
}

std::size_t
SnapshotRegistry::flushToStore()
{
    if (dir.empty())
        return 0;

    // Snapshot the slot table under the registry lock, then visit
    // each slot under its own lock (waiting out any in-flight build)
    // so a flush racing late workers still sees their results.
    std::vector<std::pair<std::string, std::shared_ptr<Slot>>> all;
    {
        MutexLock lock(mu);
        all.assign(slots.begin(), slots.end());
    }

    std::size_t written = 0;
    for (const auto &entry : all) {
        Slot &slot = *entry.second;
        MutexLock slot_lock(slot.mu);
        if (!slot.snap)
            continue;
        std::string path =
            (fs::path(dir) / snapshotKeyOf(*slot.snap).fileName())
                .string();
        std::error_code ec;
        if (fs::exists(path, ec))
            continue; // already persisted at build time
        if (saveSnapshot(*slot.snap, path)) {
            ++written;
            enforceStoreCap(path);
        } else {
            warn("SnapshotRegistry: flush could not persist '%s'",
                 slot.snap->workload.c_str());
        }
    }
    return written;
}

} // namespace harness
} // namespace seqpoint
