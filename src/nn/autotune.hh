/**
 * @file
 * GEMM autotuner. High-level MI frameworks run an "autotune" phase
 * that tries several tiled kernel variants per GEMM shape and caches
 * the fastest (paper section IV-C2). The selected variant changes both
 * the kernel *name* (hence the unique-kernel analyses, Fig 5) and its
 * memory traffic, so tuning is a first-class part of the lowering
 * substrate. The variant's tile becomes the "_MT<M>x<N>_K<K>" suffix
 * of KernelDesc::name().
 */

#ifndef SEQPOINT_NN_AUTOTUNE_HH
#define SEQPOINT_NN_AUTOTUNE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytestream.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "sim/gpu.hh"

namespace seqpoint {
namespace nn {

/** One tiled GEMM implementation choice. */
struct GemmVariant {
    unsigned tileM = 64; ///< Output-tile rows.
    unsigned tileN = 64; ///< Output-tile columns.
    unsigned tileK = 16; ///< K-panel depth held in LDS.
};

/** @return The candidate variant menu (largest to smallest tiles). */
const std::vector<GemmVariant> &gemmVariantMenu();

/**
 * One frozen tuning decision, exported for cross-tuner sharing (the
 * harness's ModelSnapshot hands a sweep's one-time autotune results
 * to every scheduler cell evaluating the same configuration).
 */
struct AutotuneEntry {
    int64_t m = 0;        ///< GEMM M dimension.
    int64_t n = 0;        ///< GEMM N dimension.
    int64_t k = 0;        ///< GEMM K dimension.
    GemmVariant variant;  ///< The winning variant.
    double costSec = 0.0; ///< Measured-mode probe time it cost.
};

/**
 * Serialize one frozen tuning decision (snapshot store). The probe
 * cost round-trips bit-exactly, so a seeded tuner's tuningCostSec()
 * matches the donor's.
 */
void encodeAutotuneEntry(ByteWriter &w, const AutotuneEntry &e);

/** Decode an entry written by encodeAutotuneEntry(). */
AutotuneEntry decodeAutotuneEntry(ByteReader &r);

/**
 * Serialize a whole tuner section in the packed form: entries are
 * canonicalized into shape-key order and delta/varint coded against
 * their predecessor (GEMM dims cluster, tile sizes repeat, probe
 * costs go through the tagged f64 coder), a fraction of the 40 raw
 * bytes per entry while round-tripping bit-exactly. The encoding is
 * canonical: encode(decode(bytes)) reproduces `bytes` for any writer
 * output.
 *
 * @param w Destination stream.
 * @param entries Entries in any order.
 */
void encodeAutotuneSection(ByteWriter &w,
                           const std::vector<AutotuneEntry> &entries);

/**
 * Decode a section written by encodeAutotuneSection(). Corrupt input
 * raises the reader's error path (typed RecoverableError in Throw
 * mode); structurally valid but hostile counts are bounded by the
 * remaining payload size before any allocation.
 */
std::vector<AutotuneEntry> decodeAutotuneSection(ByteReader &r);

/**
 * Shape -> variant cache with two selection policies.
 *
 * Heuristic mode picks by a traffic-plus-waste cost model (pure
 * function of shape). Measured mode times every candidate with the
 * bound device's timing model -- the expensive paper-style autotune --
 * and records the accumulated tuning cost so callers can include or
 * exclude it from training-time accounts. Probes bypass the device's
 * kernel-timing cache, as the profiler's op timings do. A profiler
 * does not probe through its tuner: the network's shared ResolvedOps
 * table probes each shape once per (configuration, mode) per process
 * (tune()), and the profiler records the shapes its ops use in its
 * tuner with the stored cost (record()), so the tuner's cost account
 * is what tuning them here would have left.
 * They share per-tile device terms: a tile's L1 hit fraction depends
 * only on the tile and the device, so the constructor computes it
 * once per menu tile and every probe passes it to the one timing
 * model (sim::kernelTimeSec(), the core of sim::timeKernel()). Each
 * probe's time is bit-identical to timeKernel()'s.
 *
 * select() is thread-safe so concurrent profiling tasks can share one
 * tuner. The tuning cost is stored per shape and summed in shape-key
 * order, so tuningCostSec() is bit-identical however the shapes were
 * interleaved across threads -- and whether a shape was tuned here or
 * recorded from a shared table (record()).
 */
class Autotuner
{
  public:
    /** Selection policy. */
    enum class Mode {
        Heuristic, ///< Shape-based cost model, zero tuning cost.
        Measured,  ///< Time all candidates on the device.
    };

    /**
     * Construct an autotuner.
     *
     * @param mode Selection policy.
     * @param gpu Device used by Measured mode (may be null for
     *            Heuristic).
     */
    explicit Autotuner(Mode mode, const sim::Gpu *gpu = nullptr);

    /**
     * Select (and cache) the variant for a GEMM shape.
     *
     * @param m GEMM M dimension.
     * @param n GEMM N dimension.
     * @param k GEMM K dimension.
     * @return The chosen variant.
     */
    const GemmVariant &select(int64_t m, int64_t n, int64_t k);

    /**
     * What select() would cache for a GEMM shape, computed afresh and
     * not cached: the chosen variant and, in Measured mode, the probe
     * time it cost. Thread-safe (a pure function of the shape).
     *
     * @param m GEMM M dimension.
     * @param n GEMM N dimension.
     * @param k GEMM K dimension.
     */
    AutotuneEntry tune(int64_t m, int64_t n, int64_t k) const;

    /**
     * Account shapes tuned elsewhere -- by a network's shared
     * ResolvedOps table on this tuner's device and mode -- as if
     * select() had tuned them, without a per-shape map insert: shapes
     * are kept by their network's dense shape id and merged with the
     * select()/seed() entries in shape-key order only when
     * tuningCostSec(), cacheSize() or snapshotEntries() runs, so
     * those report what the same select() calls would have left. A
     * shape seed() or select() cached wins over a recorded one. A
     * tuner records from one table until reset(): shape ids number
     * one network's shapes only.
     *
     * @param source Owner of the entries, kept alive while recorded;
     *               the same on every call since construction or
     *               reset().
     * @param order Every shape id of the source's network, in
     *              shape-key order (Model::shapeKeyOrder()).
     * @param shapes (shape id, tuned entry) pairs; repeats are fine.
     */
    void record(std::shared_ptr<const void> source,
                std::shared_ptr<const std::vector<uint32_t>> order,
                const std::vector<std::pair<uint32_t,
                                            const AutotuneEntry *>> &shapes);

    /** @return The selection policy this tuner was built with. */
    Mode selectionMode() const { return mode; }

    /** @return The device Measured mode probes on (may be null). */
    const sim::Gpu *device() const { return gpu; }

    /**
     * Accumulated Measured-mode tuning time in seconds, summed over
     * the tuned shapes in shape-key order (deterministic regardless
     * of the tuning interleaving).
     */
    double tuningCostSec() const;

    /** @return Number of distinct shapes tuned so far. */
    size_t cacheSize() const;

    /** @return A copy of every tuned shape, in shape-key order. */
    std::vector<AutotuneEntry> snapshotEntries() const;

    /**
     * Pre-populate from entries snapshotted on a tuner bound to an
     * equally configured device. Existing entries win. Seeded shapes
     * keep their original probe cost, so tuningCostSec() continues to
     * report the sweep's one-time tuning bill and delta-based
     * accounting (Experiment::epochLog) sees them as already paid.
     *
     * @param entries Entries from snapshotEntries().
     */
    void seed(const std::vector<AutotuneEntry> &entries);

    /** Drop the cache (fresh training run). */
    void reset();

  private:
    using ShapeKey = std::tuple<int64_t, int64_t, int64_t>;

    /** One tuned shape: the chosen variant and what tuning it cost. */
    struct Entry {
        GemmVariant variant; ///< Winning variant.
        double costSec = 0.0; ///< Measured-mode probe time.
    };

    Mode mode;
    const sim::Gpu *gpu;
    /** Measured mode: each menu tile's L1 hit fraction on `gpu`, in
     *  menu order. Written only by the constructor. */
    std::vector<double> tileL1Hit;
    mutable Mutex mu;
    /** Node-based map: returned variant references stay stable, so
     *  select() may hand them out after unlocking. */
    std::map<ShapeKey, Entry> cache SEQ_GUARDED_BY(mu);

    /** record()'s source, kept alive; null until the first record. */
    std::shared_ptr<const void> source SEQ_GUARDED_BY(mu);
    /** The source network's shape ids in key order (latest seen). */
    std::shared_ptr<const std::vector<uint32_t>> order SEQ_GUARDED_BY(mu);
    /** Indexed by shape id: the recorded entry, or null. */
    std::vector<const AutotuneEntry *> recorded SEQ_GUARDED_BY(mu);

    GemmVariant chooseHeuristic(int64_t m, int64_t n, int64_t k) const;
    Entry chooseMeasured(int64_t m, int64_t n, int64_t k) const;
    Entry choose(int64_t m, int64_t n, int64_t k) const;

    /** Visit every tuned shape once, in shape-key order. */
    template <typename Fn>
    void forEachEntry(Fn &&fn) const SEQ_REQUIRES(mu);
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_AUTOTUNE_HH
