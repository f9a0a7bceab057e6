/**
 * @file
 * Model graph: an ordered stack of layers plus the iteration-level
 * glue (loss backward ordering, optimizer update kernels, target-
 * length policy). Lowering a model for a (batch, sequence length)
 * pair yields the full kernel stream of one training iteration.
 *
 * An iteration is a pure function of its sequence length, and a run
 * launches only a few thousand distinct kernels, so a Model lowers
 * each (batch, SL, phase) once into a Program: launch-ordered
 * (op id, repeat) steps over a per-model table of interned,
 * unresolved ops. Programs are device- and dataset-independent; each
 * device's autotuner resolves them (lowerIteration()), or a
 * ResolvedOps table of the network resolves and times their ops once
 * per (configuration, tuner mode) for every profiler
 * (resolvedOps()). Model::share() hands out further handles on one
 * network, its memo and its tables, so every workload of a network
 * lowers each program, and tunes and times each op on a
 * configuration, once per process.
 */

#ifndef SEQPOINT_NN_MODEL_HH
#define SEQPOINT_NN_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/autotune.hh"
#include "nn/layer.hh"
#include "sim/gpu_config.hh"
#include "sim/kernel.hh"

namespace seqpoint {
namespace nn {

class ResolvedOps;

/** Shape id of an op that is not an unresolved GEMM (copyOps()). */
constexpr uint32_t kNoShape = UINT32_MAX;

/** One launch-ordered step of a Program (8 bytes). */
struct ProgramStep {
    uint32_t op = 0;     ///< Id in the model's op table (copyOps()).
    uint32_t repeat = 1; ///< Back-to-back launches of the op.
};

/**
 * One iteration lowered for a (batch, SL, phase): its launches in
 * order, as steps over the model's interned ops.
 */
using Program = std::vector<ProgramStep>;

/**
 * A trainable network as an ordered layer stack.
 *
 * Programs are memoized for the network's lifetime; program() and the
 * lowering calls are thread-safe, so profilers on different devices
 * -- and Experiments on different datasets -- may share one network
 * concurrently. A Model is move-only; share() is the one way to get a
 * second handle on its layers, target-length policy and memo. Op ids
 * are numbered in the order the memo first saw each op, so they
 * depend on every handle's query history; they only index
 * per-process tables and never reach an answer. The layer stack and
 * target-length policy are fixed once the model has been shared or
 * its first iteration lowered.
 */
class Model
{
  public:
    /**
     * ResolvedOps tables a network keeps at most, least recently
     * acquired evicted first. A handful of configurations covers a
     * figure sweep; the cap bounds a service that accepts any
     * configuration.
     */
    static constexpr std::size_t kResolvedOpTables = 6;

    /**
     * Construct an empty model.
     *
     * @param name Model name ("GNMT", "DS2", ...).
     */
    explicit Model(std::string name);

    ~Model();
    Model(Model &&) noexcept;
    Model &operator=(Model &&) noexcept;
    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    /**
     * Another handle on this network: the same layers, target-length
     * policy and program memo, so programs lowered through either
     * handle serve both. Freezes the layer stack of every handle.
     *
     * @return A handle sharing this model's state.
     */
    Model share() const;

    /** @return Model name. */
    const std::string &name() const { return name_; }

    /**
     * Append a layer; execution (and forward lowering) follows
     * insertion order.
     *
     * @param layer Layer to take ownership of.
     */
    void add(std::unique_ptr<Layer> layer);

    /** @return Number of layers. */
    size_t numLayers() const;

    /** @return Layer at position i. */
    const Layer &layer(size_t i) const;

    /** @return Total trainable parameters across layers. */
    uint64_t paramCount() const;

    /**
     * Set the target-length policy for seq2seq models: the derived
     * target length is max(1, round(ratio * source_length)).
     *
     * @param ratio Target/source length ratio (> 0).
     */
    void setTargetLenRatio(double ratio);

    /** @return The current target/source length ratio. */
    double targetLenRatio() const;

    /** @return Derived target length for a source length. */
    int64_t targetLenFor(int64_t src_len) const;

    /**
     * The memoized program of one iteration, lowered on first use.
     *
     * @param batch Batch size.
     * @param seq_len Source sequence length of the iteration.
     * @param train Full training iteration (forward pass in layer
     *              order, backward pass in reverse order, optimizer
     *              updates); false for a forward-only pass.
     * @return The program (valid while any handle on the model
     *         lives).
     */
    const Program &program(unsigned batch, int64_t seq_len,
                           bool train) const;

    /**
     * Copy interned ops out of the op table under one lock, with each
     * op's GEMM shape id. An op is an unresolved kernel descriptor with
     * repeat 1; nn::resolveKernel() turns it into a launchable one for
     * a device. Ops that are unresolved GEMMs (makeGemm(),
     * makeConv2d()) of equal (M, N, K) share one dense shape id, every
     * other op has kNoShape.
     *
     * @param ids Op ids from program steps.
     * @param ops Receives the ops, in `ids` order.
     * @param shapes Receives their shape ids, in `ids` order.
     */
    void copyOps(const std::vector<uint32_t> &ids,
                 std::vector<sim::KernelDesc> &ops,
                 std::vector<uint32_t> &shapes) const;

    /**
     * @return The number of ops interned so far. Ids are dense and
     *         only ever appended, so every step of a program already
     *         returned by program() has an op id below this count.
     */
    uint32_t opCount() const;

    /**
     * The network's process-wide table of its ops resolved and timed
     * on a configuration under a tuner mode, created empty on first
     * use. Configurations are equal when their sim::encodeGpuConfig()
     * byte images are (a NaN field matches itself, -0.0 differs from
     * 0.0). At most kResolvedOpTables stay resident; an evicted table
     * lives on while a caller holds it, and a later call makes a
     * fresh one.
     *
     * @param cfg Device configuration.
     * @param mode Tuner mode.
     */
    std::shared_ptr<ResolvedOps> resolvedOps(const sim::GpuConfig &cfg,
                                             Autotuner::Mode mode) const;

    /** @return ResolvedOps tables the network holds right now. */
    std::size_t resolvedOpTables() const;

    /**
     * Lower one full training iteration: forward pass in layer order,
     * backward pass in reverse order, then optimizer updates. Resolves
     * the memoized program through the tuner.
     *
     * @param batch Batch size.
     * @param seq_len Source sequence length of the iteration.
     * @param tuner Autotuner shared across the run.
     * @return The ordered kernel stream.
     */
    std::vector<sim::KernelDesc> lowerIteration(unsigned batch,
                                                int64_t seq_len,
                                                Autotuner &tuner) const;

    /**
     * Lower a forward-only (inference) pass; see lowerIteration().
     *
     * @param batch Batch size.
     * @param seq_len Source sequence length.
     * @param tuner Autotuner shared across the run.
     * @return The ordered kernel stream.
     */
    std::vector<sim::KernelDesc> lowerInference(unsigned batch,
                                                int64_t seq_len,
                                                Autotuner &tuner) const;

  private:
    struct ProgramMemo;
    struct Network;

    std::string name_;
    /** Layers, target-length policy and memo, shared by share(). */
    std::shared_ptr<Network> net;

    Model(std::string name, std::shared_ptr<Network> state);

    /** Panic when the model has already been shared or lowered. */
    void checkMutable(const char *what) const;

    /** Run the layers' lowering: one unresolved kernel per launch. */
    std::vector<sim::KernelDesc> lowerKernels(unsigned batch,
                                              int64_t seq_len,
                                              bool train) const;

    void lowerOptimizer(LowerCtx &ctx) const;

    std::vector<sim::KernelDesc> resolve(const Program &prog,
                                         Autotuner &tuner) const;
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_MODEL_HH
