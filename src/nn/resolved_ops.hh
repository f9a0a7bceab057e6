/**
 * @file
 * A network's ops resolved and timed on one device configuration.
 *
 * A kernel's tile choice and per-launch timing are pure functions of
 * its op and the device (the paper's frameworks autotune a shape
 * once and reuse the result, section IV-C2), so a process needs each
 * (network, configuration, op) resolved only once. A ResolvedOps
 * table holds that for one (configuration, tuner mode): per op id of
 * the network's program memo, the op's per-launch timing and class;
 * per GEMM shape id, the tuned variant.
 * nn::Model keeps one table per (configuration bytes, mode) for every
 * handle on the network (Model::resolvedOps()), so every Experiment
 * of the network reuses what earlier ones resolved.
 *
 * Each slot is filled once -- by whichever thread claims it first --
 * and published only after it is written; its address never changes
 * once published, so readers keep plain pointers to it. A table is
 * filled only from its own probes and timings.
 */

#ifndef SEQPOINT_NN_RESOLVED_OPS_HH
#define SEQPOINT_NN_RESOLVED_OPS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "nn/autotune.hh"
#include "nn/model.hh"
#include "sim/counters.hh"
#include "sim/gpu.hh"
#include "sim/kernel.hh"

namespace seqpoint {
namespace nn {

/** One op resolved for a device and timed on it: what a fold reads. */
struct ResolvedOp {
    double timeSec = 0.0;       ///< Per-launch wall time.
    sim::PerfCounters counters; ///< Per-launch counters.
    sim::KernelClass klass{};   ///< Class of the resolved kernel.
};

/**
 * A value written once by whichever thread claims it first. A thread
 * that loses the claim waits for the winner's publish (or, should the
 * winner's make() throw, claims the slot itself); the winner runs no
 * cancellation checkpoint between claim and publish.
 */
template <typename T>
class OnceSlot
{
  public:
    /** @return Whether the value is published. */
    bool
    published() const
    {
        return state.load(std::memory_order_acquire) == kPublished;
    }

    /** @return The value; only once published(). */
    const T &value() const { return value_; }

    /**
     * @return The published value, computing it with make() when no
     *         other thread has claimed the slot.
     */
    template <typename Make>
    const T &
    fill(Make &&make)
    {
        for (;;) {
            uint8_t s = state.load(std::memory_order_acquire);
            if (s == kPublished)
                return value_;
            if (s == kEmpty &&
                state.compare_exchange_strong(s, kClaimed,
                                              std::memory_order_acquire)) {
                try {
                    value_ = make();
                } catch (...) {
                    state.store(kEmpty, std::memory_order_release);
                    throw;
                }
                state.store(kPublished, std::memory_order_release);
                return value_;
            }
            std::this_thread::yield();
        }
    }

  private:
    static constexpr uint8_t kEmpty = 0;
    static constexpr uint8_t kClaimed = 1;
    static constexpr uint8_t kPublished = 2;

    T value_{};
    std::atomic<uint8_t> state{kEmpty};
};

/**
 * The resolved ops of one network on one (configuration, tuner mode).
 * Thread-safe: slot lookups take one lock per batch, fills none.
 */
class ResolvedOps
{
  public:
    using OpSlot = OnceSlot<ResolvedOp>;       ///< One op's slot.
    using ShapeSlot = OnceSlot<GemmVariant>; ///< One shape's slot.

    /**
     * @param cfg Device configuration ops are tuned and timed on.
     * @param mode Tuning policy (Heuristic and Measured pick different
     *             tiles, so they never share a table).
     */
    ResolvedOps(const sim::GpuConfig &cfg, Autotuner::Mode mode);

    ResolvedOps(const ResolvedOps &) = delete;
    ResolvedOps &operator=(const ResolvedOps &) = delete;

    /**
     * The slots of op ids, allocated on first use; one lock for the
     * whole batch.
     *
     * @param ops Op ids.
     * @param slots Receives one slot per op id, in order.
     */
    void opSlots(const std::vector<uint32_t> &ops,
                 std::vector<OpSlot *> &slots);

    /**
     * The slots of GEMM shape ids, allocated on first use; one lock
     * for the whole batch.
     *
     * @param shapes Shape ids; a kNoShape entry gets null.
     * @param slots Receives one slot per shape id, in order.
     */
    void shapeSlots(const std::vector<uint32_t> &shapes,
                    std::vector<ShapeSlot *> &slots);

    /**
     * Resolve and time an op into its slot unless another thread has:
     * a GEMM op gets its shape's tile (probed into `shape` first if
     * need be), then sim::timeKernel() on the table's configuration.
     *
     * @param slot The op's slot.
     * @param op The op, unresolved (Model::copyOps()).
     * @param shape The slot of the op's shape; null for kNoShape.
     */
    void fill(OpSlot &slot, const sim::KernelDesc &op, ShapeSlot *shape);

    /** @return Bytes held by the allocated slot chunks. */
    std::size_t residentBytes() const;

  private:
    /** Slots of kSize consecutive ids, allocated together. */
    template <typename T>
    struct Chunk {
        static constexpr uint32_t kBits = 8;
        static constexpr uint32_t kSize = 1u << kBits;
        OnceSlot<T> slots[kSize];
    };

    /** A table's probes run on this device, which nothing executes on. */
    sim::Gpu gpu;
    /** Probes shapes; its own shape cache is never used. */
    Autotuner prober;

    mutable Mutex mu;
    std::vector<std::unique_ptr<Chunk<ResolvedOp>>> opChunks
        SEQ_GUARDED_BY(mu);
    std::vector<std::unique_ptr<Chunk<GemmVariant>>> shapeChunks
        SEQ_GUARDED_BY(mu);
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_RESOLVED_OPS_HH
