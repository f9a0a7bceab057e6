/**
 * @file
 * Persistent ModelSnapshot serialization: an endian-stable binary
 * format that lets one process's cold start (model lowering,
 * autotune, the per-SL profiles, the reference epoch and every
 * selection) seed another process bit-identically -- the
 * checkpoint-reuse discipline applied across bench binaries and CI
 * runs.
 *
 * A snapshot file is only ever adopted whole: the header carries a
 * format magic, the writing build's identity (snapshotBuildId()) and
 * a payload checksum, and the payload carries the full identity the
 * snapshotted state is a function of (workload, every GpuConfig
 * parameter, every run parameter). Any mismatch -- wrong magic,
 * another build, truncation, corruption, or an identity that differs
 * from what the caller expects -- rejects the file. A stale or
 * foreign file can never silently half-seed an experiment.
 *
 * tryLoadSnapshot() classifies a rejection in a Result, so the
 * registry can degrade a bad store file to a cold-start recompute
 * (dropping another build's file, quarantining a corrupt one), or,
 * in strict mode, make it fatal.
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
 * Identity of this build: a 64-bit digest over every source file
 * under src/, the compiler and its version, the build type and the
 * CXX flags, generated at build time (tools/build_id.cmake). It names
 * and stamps every store file, so a file written by any other build
 * -- an edited model, another codec layout, other compiler flags --
 * is never adopted. Builds that do not generate it share the
 * identity 0, which no generated identity equals.
 */
uint64_t snapshotBuildId();

/**
 * Whether a file name is a store file another build wrote:
 * "snap-<buildId>-<hash>.bin", both as 16 lower-case hex digits, with
 * a build identity other than snapshotBuildId(). Such a file is never
 * opened (see SnapshotKey::fileName()). Temporary (.tmp), quarantined
 * (.corrupt) and other names are not.
 *
 * @param name File name, without a directory.
 */
bool otherBuildsStoreFile(const std::string &name);

/**
 * Full identity of a snapshot: everything the snapshotted state is a
 * pure function of. Two snapshots with equal keys are interchangeable
 * (bit-identical results); everything else must never be mixed.
 */
struct SnapshotKey {
    std::string workload;        ///< Workload name.
    /** sim::encodeGpuConfig()'s bytes as hex (bit-exact). */
    std::string configSignature;
    std::string paramDigest;     ///< Lossless run-parameter render.

    /** @return The registry cache key (all three parts joined). */
    std::string cacheKey() const;

    /**
     * Store file name: "snap-<buildId>-<fnv64(cacheKey)>.bin", both
     * as 16 hex digits. The build identity is part of the name, so
     * another build's files are never opened.
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
 * build identity, payload size, payload checksum and full structural
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
 *   - VersionMismatch: a file stamped by another build;
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

} // namespace harness
} // namespace seqpoint

#endif // SEQPOINT_HARNESS_SNAPSHOT_IO_HH
