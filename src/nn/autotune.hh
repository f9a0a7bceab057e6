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
#include <tuple>
#include <vector>

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
 * Shape -> variant cache with two selection policies.
 *
 * Heuristic mode picks by a traffic-plus-waste cost model (pure
 * function of shape). Measured mode times every candidate with the
 * bound device's timing model -- the expensive paper-style autotune,
 * a one-time phase that training-time accounts leave out. Probes
 * bypass the device's kernel-timing cache, as the profiler's op
 * timings do. A profiler does not probe through its tuner: the
 * network's shared ResolvedOps table probes each shape once per
 * (configuration, mode) per process (tune()).
 * They share per-tile device terms: a tile's L1 hit fraction depends
 * only on the tile and the device, so the constructor computes it
 * once per menu tile and every probe passes it to the one timing
 * model (sim::kernelTimeSec(), the core of sim::timeKernel()). Each
 * probe's time is bit-identical to timeKernel()'s.
 *
 * select() is thread-safe so concurrent lowering tasks can share one
 * tuner; both policies are pure functions of the shape, so the cache
 * holds the same variants however the shapes were interleaved across
 * threads.
 */
class Autotuner
{
  public:
    /** Selection policy. */
    enum class Mode {
        Heuristic, ///< Shape-based cost model.
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
     * not cached. Thread-safe (a pure function of the shape).
     *
     * @param m GEMM M dimension.
     * @param n GEMM N dimension.
     * @param k GEMM K dimension.
     */
    GemmVariant tune(int64_t m, int64_t n, int64_t k) const;

    /** @return The selection policy this tuner was built with. */
    Mode selectionMode() const { return mode; }

    /** @return The device Measured mode probes on (may be null). */
    const sim::Gpu *device() const { return gpu; }

    /** @return Number of distinct shapes select() has cached. */
    size_t cacheSize() const;

  private:
    using ShapeKey = std::tuple<int64_t, int64_t, int64_t>;

    Mode mode;
    const sim::Gpu *gpu;
    /** Measured mode: each menu tile's L1 hit fraction on `gpu`, in
     *  menu order. Written only by the constructor. */
    std::vector<double> tileL1Hit;
    mutable Mutex mu;
    /** Node-based map: returned variant references stay stable, so
     *  select() may hand them out after unlocking. */
    std::map<ShapeKey, GemmVariant> cache SEQ_GUARDED_BY(mu);

    GemmVariant chooseHeuristic(int64_t m, int64_t n, int64_t k) const;
    GemmVariant chooseMeasured(int64_t m, int64_t n, int64_t k) const;
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_AUTOTUNE_HH
