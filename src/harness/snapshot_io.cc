/**
 * @file
 * Snapshot serialization implementation.
 */

#include "harness/snapshot_io.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/bytestream.hh"
#include "common/cancel.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace seqpoint {
namespace harness {

namespace {

/** File magic: "SQPS" little-endian. */
constexpr uint32_t kSnapshotMagic = 0x53505153u;

/** Render a BatchPolicy losslessly for the parameter digest. */
const char *
policyName(data::BatchPolicy policy)
{
    switch (policy) {
      case data::BatchPolicy::Shuffled:
        return "shuffled";
      case data::BatchPolicy::SortedBySl:
        return "sorted";
      case data::BatchPolicy::Bucketed:
        return "bucketed";
    }
    panic("policyName: bad policy");
    return "";
}

/** The run-parameter digest shared by both key builders. */
std::string
paramDigest(const std::string &dataset, unsigned batch,
            data::BatchPolicy policy, uint64_t seed, double eval_cost,
            const core::SeqPointOptions &opts)
{
    return csprintf(
        "%s|%u|%s|%llu|%.17g|n%u|k%u|e%.17g|m%u|b%u|p%u",
        dataset.c_str(), batch, policyName(policy),
        static_cast<unsigned long long>(seed), eval_cost,
        opts.uniqueSlThreshold, opts.initialBins, opts.errorThreshold,
        opts.maxBins, static_cast<unsigned>(opts.binning),
        static_cast<unsigned>(opts.repPick));
}

void
encodeProfileMap(ByteWriter &w,
                 const std::map<int64_t, prof::IterationProfile> &map)
{
    w.u64(map.size());
    for (const auto &[sl, profile] : map) {
        w.i64(sl);
        prof::encodeIterationProfile(w, profile);
    }
}

std::map<int64_t, prof::IterationProfile>
decodeProfileMap(ByteReader &r)
{
    std::map<int64_t, prof::IterationProfile> map;
    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n; ++i) {
        int64_t sl = r.i64();
        bool inserted =
            map.emplace(sl, prof::decodeIterationProfile(r)).second;
        if (!inserted) {
            r.fail(csprintf("%s: duplicate profile entry for SL %lld",
                            r.what().c_str(),
                            static_cast<long long>(sl)));
        }
    }
    return map;
}

} // anonymous namespace

std::string
SnapshotKey::cacheKey() const
{
    return workload + "\x1f" + configSignature + "\x1f" + paramDigest;
}

std::string
SnapshotKey::fileName() const
{
    return csprintf("snap-v%u-%016llx.bin", kSnapshotFormatVersion,
                    static_cast<unsigned long long>(
                        fnv1a64(cacheKey())));
}

SnapshotKey
snapshotKeyFor(const Workload &wl, const core::SeqPointOptions &opts,
               const sim::GpuConfig &cfg)
{
    SnapshotKey key;
    key.workload = wl.name;
    key.configSignature = cfg.signature();
    key.paramDigest =
        paramDigest(wl.dataset.name, wl.batchSize, wl.policy, wl.seed,
                    wl.evalCostMultiplier, opts);
    return key;
}

SnapshotKey
snapshotKeyOf(const ModelSnapshot &snap)
{
    SnapshotKey key;
    key.workload = snap.workload;
    key.configSignature = snap.config.signature();
    key.paramDigest =
        paramDigest(snap.dataset, snap.batchSize, snap.policy,
                    snap.seed, snap.evalCostMultiplier, snap.opts);
    return key;
}

std::string
encodeSnapshotPayload(const ModelSnapshot &snap)
{
    ByteWriter w;

    // Identity first, so validation can reject a foreign file before
    // anything heavy decodes.
    w.str(snap.workload);
    sim::encodeGpuConfig(w, snap.config);
    w.str(snap.dataset);
    w.u32(snap.batchSize);
    w.u32(static_cast<uint32_t>(snap.policy));
    w.u64(snap.seed);
    w.f64(snap.evalCostMultiplier);
    core::encodeSeqPointOptions(w, snap.opts);

    // Packed tuner section: shape-key order, delta/varint coded
    // (format v4; v3 wrote the entries raw).
    nn::encodeAutotuneSection(w, snap.tunerEntries);

    encodeProfileMap(w, snap.trainProfiles);
    encodeProfileMap(w, snap.inferProfiles);

    prof::encodeTrainLog(w, snap.log);
    core::encodeSlStats(w, snap.stats);

    w.u64(snap.selections.size());
    for (const auto &[kind, set] : snap.selections) {
        w.u32(static_cast<uint32_t>(kind));
        core::encodeSeqPointSet(w, set);
    }

    return w.data();
}

ModelSnapshot
decodeSnapshotPayload(std::string_view payload, const std::string &what,
                      ByteReader::OnError on_error)
{
    ByteReader r(payload, what, on_error);
    ModelSnapshot snap;

    cancelCheckpoint("snapshot.decode");
    snap.workload = r.str();
    snap.config = sim::decodeGpuConfig(r);
    snap.dataset = r.str();
    snap.batchSize = r.u32();
    uint32_t policy = r.u32();
    if (policy > static_cast<uint32_t>(data::BatchPolicy::Bucketed))
        r.fail(csprintf("%s: invalid batch policy %u", what.c_str(),
                        policy));
    snap.policy = static_cast<data::BatchPolicy>(policy);
    snap.seed = r.u64();
    snap.evalCostMultiplier = r.f64();
    snap.opts = core::decodeSeqPointOptions(r);

    snap.tunerEntries = nn::decodeAutotuneSection(r);

    // The profile maps dominate decode time, so poll the cancel
    // context around them: a request whose deadline fires mid-decode
    // unwinds here instead of holding its registry slot for the rest
    // of the file.
    cancelCheckpoint("snapshot.decode");
    snap.trainProfiles = decodeProfileMap(r);
    snap.inferProfiles = decodeProfileMap(r);
    cancelCheckpoint("snapshot.decode");

    snap.log = prof::decodeTrainLog(r);
    snap.stats = core::decodeSlStats(r);

    uint64_t sel_n = r.u64();
    for (uint64_t i = 0; i < sel_n; ++i) {
        uint32_t kind = r.u32();
        if (kind > static_cast<uint32_t>(core::SelectorKind::SeqPoint))
            r.fail(csprintf("%s: invalid selector kind %u",
                            what.c_str(), kind));
        bool inserted =
            snap.selections
                .emplace(static_cast<core::SelectorKind>(kind),
                         core::decodeSeqPointSet(r))
                .second;
        if (!inserted)
            r.fail(csprintf("%s: duplicate selector kind %u",
                            what.c_str(), kind));
    }

    if (!r.done())
        r.fail(csprintf("%s: %zu trailing byte(s) after the payload",
                        what.c_str(), r.remaining()));
    return snap;
}

bool
saveSnapshot(const ModelSnapshot &snap, const std::string &path)
{
    std::string payload = encodeSnapshotPayload(snap);

    ByteWriter header;
    header.u32(kSnapshotMagic);
    header.u32(kSnapshotFormatVersion);
    header.u64(payload.size());
    header.u64(fnv1a64Words(payload));

    // Write to a per-process temp name and rename, so a concurrent
    // reader (or a crashed/racing writer) can never observe a
    // half-written store file; rename is atomic within a directory.
    std::string tmp =
        csprintf("%s.tmp.%ld", path.c_str(),
                 static_cast<long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("saveSnapshot: cannot open '%s' for writing",
                 tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
        // An injected write fault models a writer dying mid-stream:
        // half the bytes land in the temp file, the rename never
        // happens, and the destination name is never created -- the
        // invariant the atomic-save scheme must uphold.
        Status injected =
            FaultInjector::instance().check("snapshot_io.write", path);
        if (!injected.ok()) {
            std::string full = header.data() + payload;
            out << full.substr(0, full.size() / 2);
            out.flush();
            warn("saveSnapshot: %s", injected.toString().c_str());
            return false;
        }
        out << header.data() << payload;
        if (!out) {
            warn("saveSnapshot: short write to '%s'", tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("saveSnapshot: cannot rename '%s' to '%s'", tmp.c_str(),
             path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

namespace {

/** Shorthand for the loader's error results. */
Status
loadError(ErrorCode code, std::string msg)
{
    return Status::error(code, std::move(msg));
}

} // anonymous namespace

Result<std::shared_ptr<const ModelSnapshot>>
tryLoadSnapshot(const std::string &path, const SnapshotKey *expect)
{
    using SnapPtr = std::shared_ptr<const ModelSnapshot>;

    Status injected =
        FaultInjector::instance().check("snapshot_io.read", path);
    if (!injected.ok())
        return injected;

    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return SnapPtr(nullptr); // expected store miss, not an error
    std::streamoff size = in.tellg();
    if (size < 0) {
        return loadError(ErrorCode::IoError,
                         csprintf("%s: cannot stat", path.c_str()));
    }
    std::string bytes(static_cast<size_t>(size), '\0');
    in.seekg(0);
    in.read(bytes.data(), size);
    if (!in) {
        return loadError(ErrorCode::IoError,
                         csprintf("%s: read error", path.c_str()));
    }

    try {
        ByteReader header(bytes, path, ByteReader::OnError::Throw);
        uint32_t magic = header.u32();
        if (magic != kSnapshotMagic) {
            return loadError(
                ErrorCode::Corruption,
                csprintf("%s: not a snapshot file (magic %08x, "
                         "expected %08x)",
                         path.c_str(), magic, kSnapshotMagic));
        }
        uint32_t version = header.u32();
        if (version != kSnapshotFormatVersion) {
            return loadError(
                ErrorCode::VersionMismatch,
                csprintf("%s: snapshot format version %u, this build "
                         "reads only version %u; delete the stale "
                         "store entry",
                         path.c_str(), version,
                         kSnapshotFormatVersion));
        }
        uint64_t payload_size = header.u64();
        uint64_t checksum = header.u64();
        if (payload_size != header.remaining()) {
            return loadError(
                ErrorCode::Corruption,
                csprintf("%s: payload is %zu byte(s), header promises "
                         "%llu (truncated or corrupted file)",
                         path.c_str(), header.remaining(),
                         static_cast<unsigned long long>(
                             payload_size)));
        }

        std::string_view payload =
            std::string_view(bytes).substr(bytes.size() - payload_size);
        if (fnv1a64Words(payload) != checksum) {
            return loadError(
                ErrorCode::Corruption,
                csprintf("%s: payload checksum mismatch (corrupted "
                         "file)",
                         path.c_str()));
        }

        auto snap = std::make_shared<ModelSnapshot>(
            decodeSnapshotPayload(payload, path,
                                  ByteReader::OnError::Throw));

        if (expect) {
            SnapshotKey got = snapshotKeyOf(*snap);
            if (got.workload != expect->workload) {
                return loadError(
                    ErrorCode::Corruption,
                    csprintf("%s: snapshot is for workload '%s', "
                             "expected '%s'",
                             path.c_str(), got.workload.c_str(),
                             expect->workload.c_str()));
            }
            if (got.configSignature != expect->configSignature) {
                return loadError(
                    ErrorCode::Corruption,
                    csprintf("%s: snapshot config signature mismatch "
                             "for workload '%s'\n  file:     %s\n"
                             "  expected: %s",
                             path.c_str(), got.workload.c_str(),
                             got.configSignature.c_str(),
                             expect->configSignature.c_str()));
            }
            if (got.paramDigest != expect->paramDigest) {
                return loadError(
                    ErrorCode::Corruption,
                    csprintf("%s: snapshot run-parameter mismatch for "
                             "workload '%s'\n  file:     %s\n"
                             "  expected: %s",
                             path.c_str(), got.workload.c_str(),
                             got.paramDigest.c_str(),
                             expect->paramDigest.c_str()));
            }
        }
        return SnapPtr(std::move(snap));
    } catch (const CancelledError &) {
        // Cancellation mid-decode says nothing about the file: it
        // must reach the caller as cancellation, never be absorbed as
        // a load failure (which the registry would quarantine).
        throw;
    } catch (const RecoverableError &e) {
        // Structural decode failure inside a checksum-valid frame
        // (or a truncated frame caught by the reader's bounds check).
        return e.status();
    }
}

namespace {

/** Shared fail-fast wrapper over tryLoadSnapshot(). */
std::shared_ptr<const ModelSnapshot>
loadSnapshotOrDie(const std::string &path, const SnapshotKey *expect,
                  bool missing_ok)
{
    auto result = tryLoadSnapshot(path, expect);
    fatal_if(!result.ok(), "%s", result.status().message().c_str());
    auto snap = result.take();
    if (!snap && !missing_ok)
        fatal("loadSnapshot: cannot open '%s'", path.c_str());
    return snap;
}

} // anonymous namespace

std::shared_ptr<const ModelSnapshot>
loadSnapshot(const std::string &path, const SnapshotKey *expect)
{
    return loadSnapshotOrDie(path, expect, /*missing_ok=*/false);
}

std::shared_ptr<const ModelSnapshot>
loadSnapshotIfPresent(const std::string &path,
                      const SnapshotKey *expect)
{
    return loadSnapshotOrDie(path, expect, /*missing_ok=*/true);
}

} // namespace harness
} // namespace seqpoint
