/**
 * @file
 * Persistent ModelSnapshot serialization: a versioned, endian-stable
 * binary format that lets one process's cold start (model lowering,
 * autotune, the per-SL profiles, the reference epoch and every
 * selection) seed another process bit-identically -- the
 * checkpoint-reuse discipline applied across bench binaries and CI
 * runs.
 *
 * A snapshot file is only ever adopted whole: the header carries a
 * format magic, a format version and a payload checksum, and the
 * payload carries the full identity the snapshotted state is a
 * function of (workload, every GpuConfig parameter, every run
 * parameter). Any mismatch -- wrong magic, wrong version, truncation,
 * corruption, or an identity that differs from what the caller
 * expects -- rejects the file. A stale or foreign file can never
 * silently half-seed an experiment.
 *
 * Rejection comes in two strengths. tryLoadSnapshot() classifies the
 * failure in a Result, so the registry can degrade a bad store file
 * to a cold-start recompute (quarantining the file); loadSnapshot()
 * and loadSnapshotIfPresent() keep the original fail-fast contract
 * for callers that point at an explicit file.
 */

#ifndef SEQPOINT_HARNESS_SNAPSHOT_IO_HH
#define SEQPOINT_HARNESS_SNAPSHOT_IO_HH

#include <memory>
#include <string>
#include <string_view>

#include "common/bytestream.hh"
#include "common/status.hh"
#include "core/seqpoint.hh"
#include "harness/snapshot.hh"
#include "harness/workloads.hh"

namespace seqpoint {
namespace harness {

/**
 * On-disk format version. Bump on ANY change to the encoded layout or
 * to the semantics of an encoded field; old files then fail the
 * version check (and the store file name changes too, so a shared
 * cache simply rebuilds instead of erroring).
 *
 * v2: the timing-cache section (~95% of a v1 file) moved to the
 * canonically-ordered varint/delta form (sim::encodeTimingSection);
 * v1 files are rejected loudly, as designed.
 *
 * v3: byte layout identical to v2; bumped for the decode-hardening
 * sweep (fatal_if -> recoverable fail on corrupt payloads, wrap-safe
 * delta arithmetic) so the codec content pins could be regenerated
 * under the lint ratchet. v2 stores rebuild on first use.
 *
 * v4: the tuner section (the last raw-encoded section) moved to the
 * packed shape-key-ordered varint/delta form
 * (nn::encodeAutotuneSection). v3 stores rebuild on first use.
 *
 * v5: byte layout identical to v4; bumped because Measured autotune
 * probes no longer enter the device's timing cache, so a snapshot's
 * timing section holds only kernels that really launched (the losing
 * variants were ~80% of it). v4 stores rebuild on first use, which
 * drops their probe entries.
 *
 * v6: byte layout and field semantics identical to v5; bumped because
 * the trainer source, which holds the TrainLog codec, lost its
 * per-iteration and memoize-off paths, so the codec content pins had
 * to be regenerated under the lint ratchet. v5 stores rebuild on
 * first use.
 *
 * v7: byte layout and field semantics identical to v6; bumped because
 * the tuner and counter sources, which hold the tuner-section and
 * counter codecs, changed (Measured probes share per-tile L1 terms;
 * counter arithmetic moved inline), so the codec content pins had to
 * be regenerated under the lint ratchet. Every encoded probe cost and
 * counter is bit-identical to v6's. v6 stores rebuild on first use.
 *
 * v8: the timing-cache section is gone; the tuner section is followed
 * directly by the profile maps. A seeded Experiment re-times the few
 * kernels it needs (as cheap as inserting stored timings, and
 * bit-identical), so the section -- ~82% of a v7 file -- only cost
 * encode, decode and memory. A v8 payload is its v7 payload with the
 * timing section's bytes cut out. v7 stores rebuild on first use.
 */
constexpr uint32_t kSnapshotFormatVersion = 8;

/**
 * Full identity of a snapshot: everything the snapshotted state is a
 * pure function of. Two snapshots with equal keys are interchangeable
 * (bit-identical results); everything else must never be mixed.
 */
struct SnapshotKey {
    std::string workload;        ///< Workload name.
    std::string configSignature; ///< GpuConfig::signature() (lossless).
    std::string paramDigest;     ///< Lossless run-parameter render.

    /** @return The registry cache key (all three parts joined). */
    std::string cacheKey() const;

    /**
     * Store file name: "snap-v<version>-<fnv64(cacheKey)>.bin". The
     * format version is part of the name, so a format bump invalidates
     * a shared store by construction (old files are never opened).
     */
    std::string fileName() const;

    /** Field-wise equality. */
    bool operator==(const SnapshotKey &other) const = default;
};

/**
 * Key for (workload, options, configuration) -- what an Experiment
 * for `wl` with tunables `opts` would need on configuration `cfg`.
 */
SnapshotKey snapshotKeyFor(const Workload &wl,
                           const core::SeqPointOptions &opts,
                           const sim::GpuConfig &cfg);

/** Key a snapshot claims for itself (from its identity fields). */
SnapshotKey snapshotKeyOf(const ModelSnapshot &snap);

/**
 * Encode a snapshot's full payload (identity plus all frozen state).
 * Exposed for the bit-identity tests: two snapshots are
 * interchangeable iff their encoded payloads are byte-equal.
 */
std::string encodeSnapshotPayload(const ModelSnapshot &snap);

/**
 * Decode a payload written by encodeSnapshotPayload(). Any structural
 * problem fails in the given mode (fatal, or RecoverableError with
 * code Corruption); `what` names the artifact in error messages.
 */
ModelSnapshot decodeSnapshotPayload(
    std::string_view payload, const std::string &what,
    ByteReader::OnError on_error = ByteReader::OnError::Fatal);

/**
 * Write a snapshot to `path` (header + checksummed payload).
 *
 * Persisting is an optimisation, so IO failure warns and returns
 * false instead of aborting the run.
 *
 * @param snap Snapshot to persist.
 * @param path Destination file.
 * @return True on success.
 */
bool saveSnapshot(const ModelSnapshot &snap, const std::string &path);

/**
 * Load a snapshot from `path` with strict validation: format magic,
 * format version, payload size, payload checksum and full structural
 * decode must all pass, and when `expect` is non-null the decoded
 * identity must match it exactly -- but classify any failure instead
 * of aborting, so the caller can degrade (recompute cold, quarantine
 * the file) rather than die.
 *
 * Outcomes:
 *   - OK holding the snapshot: the file passed every check;
 *   - OK holding null: the file does not exist / cannot be opened
 *     (an expected store miss, not an error);
 *   - IoError: the file opened but could not be read;
 *   - VersionMismatch: another format generation's file;
 *   - Corruption: anything else -- bad magic, truncation, checksum,
 *     structural decode failure, or an identity that is not `expect`.
 *
 * @param path Source file.
 * @param expect Identity the caller requires, or null to accept any
 *               well-formed snapshot.
 * @return The classified outcome.
 */
Result<std::shared_ptr<const ModelSnapshot>>
tryLoadSnapshot(const std::string &path,
                const SnapshotKey *expect = nullptr);

/**
 * Load a snapshot from `path`; any failure (including a missing
 * file) is fatal -- the fail-fast flavour of tryLoadSnapshot() for
 * callers naming an explicit file that must exist.
 *
 * @param path Source file.
 * @param expect Identity the caller requires, or null to accept any
 *               well-formed snapshot.
 * @return The decoded snapshot (shared, immutable).
 */
std::shared_ptr<const ModelSnapshot>
loadSnapshot(const std::string &path,
             const SnapshotKey *expect = nullptr);

/**
 * Like loadSnapshot(), but a file that cannot be opened returns null
 * instead of aborting -- the registry's store races (a concurrent
 * process evicting or not-yet-writing the file) are an expected
 * miss, not corruption. Every validation failure on a file that
 * *can* be opened remains fatal.
 *
 * @param path Source file.
 * @param expect Identity the caller requires, or null.
 * @return The decoded snapshot, or null when `path` cannot be
 *         opened.
 */
std::shared_ptr<const ModelSnapshot>
loadSnapshotIfPresent(const std::string &path,
                      const SnapshotKey *expect = nullptr);

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_SNAPSHOT_IO_HH
