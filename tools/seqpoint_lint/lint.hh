/**
 * @file
 * Repo-invariant linter for the SeqPoint tree. Eight rules, each a
 * cheap textual scan with an explicit, committed registry so that a
 * violation is a conscious decision, never a silent drift:
 *
 *   1. checkpoint  -- long-running loops in the profiler / trainer /
 *      scheduler / service / snapshot-decode paths must poll
 *      cancelCheckpoint (or live in the committed allowlist).
 *   2. status-discard -- no Status/Result-returning call may be
 *      discarded at statement position or laundered through (void),
 *      outside the committed allowlist.
 *   3. codec-pin   -- editing a serialization-codec file requires a
 *      kSnapshotFormatVersion bump (content hashes are pinned).
 *   4. error-code  -- every ErrorCode enumerator must have a
 *      classification string in errorCodeName().
 *   5. unordered-iter -- loops over unordered containers in files on
 *      the determinism_paths.txt registry (serializers, exporters,
 *      BENCH assembly) need a 'seqlint:canonical-order' annotation
 *      (asserting the order is canonicalised downstream) or a pin.
 *   6. nondeterminism -- unseeded randomness and wall-clock reads
 *      (rand, random_device, steady_clock, ...) are banned in src/
 *      and bench/ outside the sanctioned common/rng.hh wrapper and
 *      the committed allowlist.
 *   7. float-reduce -- compound accumulation (+=, -=, *=) inside a
 *      parallelFor lambda commits to the thread schedule's summation
 *      order; use parallelReduceSum, a per-slot write indexed by the
 *      lambda's index, a 'seqlint:deterministic-reduce' annotation,
 *      or a pin.
 *   8. fuzz-coverage -- every decode*() / ByteReader entry point in
 *      the fuzz_codec_files.txt registry must be exercised by a fuzz
 *      harness listed in fuzz_harnesses.txt (new codecs cannot ship
 *      unfuzzed).
 *
 * The scans run on comment/string-stripped text, so commentary never
 * trips rules 1-2 and string contents never unbalance the brace
 * matcher; rule 3 strips comments only (string literals are codec
 * behaviour). Escape-hatch annotations (rules 5 and 7) are comments
 * and are matched against the raw text, on the flagged line or the
 * two lines above it. Config lives in the .txt registries next to
 * the linter under tools/seqpoint_lint/.
 */

#ifndef SEQPOINT_LINT_HH
#define SEQPOINT_LINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace seqlint {

/** One rule violation at a source location. */
struct Violation {
    std::string rule;    ///< "checkpoint", "status-discard", ...
    std::string file;    ///< Repo-relative path.
    int line = 0;        ///< 1-based line (0 = whole file).
    std::string message; ///< What is wrong and how to fix it.
};

/** Linter invocation options. */
struct Options {
    std::string root; ///< Repository root directory.
};

/** FNV-1a 64-bit hash (allowlist keys and codec pins). */
uint64_t fnv1a64(const std::string &data);

/** Lower-case hex rendering of a 64-bit hash. */
std::string hashHex(uint64_t h);

/**
 * Strip comments from C++ source, preserving newlines (so line
 * numbers survive). With `strip_strings`, string and character
 * literal *contents* are blanked too (the quotes remain), so braces
 * or parens inside literals cannot unbalance a structural scan.
 */
std::string stripComments(const std::string &src, bool strip_strings);

/** One for/while loop found by the structural scanner. */
struct LoopSite {
    int line = 0;           ///< 1-based line of the loop keyword.
    std::string header;     ///< Whitespace-normalised "for (...)".
    std::size_t bodyBegin = 0; ///< Body range in the stripped text.
    std::size_t bodyEnd = 0;
    bool checked = false;   ///< Checkpoint call in body or enclosing
                            ///< checked loop.
};

/**
 * Find every for/while loop in comment/string-stripped source and
 * mark the ones whose body (or enclosing loop body) contains a
 * cancellation-checkpoint call.
 */
std::vector<LoopSite> findLoops(const std::string &stripped);

/** Allowlist key for a loop: "<relpath>#<fnv64 of its header>". */
std::string loopKey(const std::string &relpath, const LoopSite &loop);

/** Run every rule; append violations. False on config/IO errors. */
bool runLint(const Options &opts, std::vector<Violation> &out);

/**
 * Render violations as a JSON array (one object per violation with
 * "rule", "file", "line", "message"), for --format=json consumers
 * (CI turns these into per-file annotations).
 */
std::string violationsJson(const std::vector<Violation> &violations);

/**
 * Recompute the codec pins (rule 3). Refuses -- returning false with
 * a message in `error` -- when a pinned file's content changed but
 * kSnapshotFormatVersion did not, since that is exactly the drift the
 * rule exists to catch.
 */
bool updateCodecPins(const Options &opts, std::string &error);

/**
 * Print every loop in the checkpoint-scanned files with its allowlist
 * key and checked state (maintenance aid for the rule-1 registry).
 */
bool listLoops(const Options &opts, std::string &out);

} // namespace seqlint

#endif // SEQPOINT_LINT_HH
