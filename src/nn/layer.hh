/**
 * @file
 * Layer abstraction: each layer lowers itself into forward and
 * backward kernel sequences for a given (batch, sequence-length)
 * iteration. The per-iteration kernel stream is what the GPU
 * simulator executes and the profiler measures. Lowering consults no
 * device: GEMM-class kernels come out unresolved (nn/kernel_gen.hh),
 * so a Model can lower each iteration once and resolve it per device.
 */

#ifndef SEQPOINT_NN_LAYER_HH
#define SEQPOINT_NN_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hh"

namespace seqpoint {
namespace nn {

/**
 * Which sequence axis a layer's work scales with.
 *
 * CNN-style layers use Fixed: their work is input-independent, which
 * is exactly the homogeneity property Fig 3 contrasts with SQNNs.
 */
enum class TimeAxis {
    Source, ///< Scales with the input sequence length.
    Target, ///< Scales with the derived target sequence length.
    Fixed,  ///< Input-independent (CNN-style).
};

/** Per-iteration lowering parameters and kernel sink. */
struct LowerCtx {
    unsigned batch = 64;  ///< Batch size (constant over a run).
    int64_t seqLen = 1;   ///< Source-side sequence length.
    int64_t tgtLen = 1;   ///< Target-side sequence length.
    std::vector<sim::KernelDesc> *out = nullptr; ///< Kernel sink.

    /** Append a kernel to the stream. */
    void emit(sim::KernelDesc kd) { out->push_back(std::move(kd)); }

    /**
     * Time steps along an axis.
     *
     * @param axis Axis selector.
     * @param fixed_steps Step count used for TimeAxis::Fixed.
     */
    int64_t steps(TimeAxis axis, int64_t fixed_steps = 1) const;
};

/**
 * Base class for all layers.
 */
class Layer
{
  public:
    /**
     * Construct a layer.
     *
     * @param name Layer instance name (unique within a model).
     */
    explicit Layer(std::string name);

    virtual ~Layer() = default;

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    /** @return Layer instance name. */
    const std::string &name() const { return name_; }

    /**
     * Emit this layer's forward-pass kernels.
     *
     * @param ctx Iteration parameters and kernel sink.
     */
    virtual void lowerForward(LowerCtx &ctx) const = 0;

    /**
     * Emit this layer's backward-pass kernels (data and weight
     * gradients).
     *
     * @param ctx Iteration parameters and kernel sink.
     */
    virtual void lowerBackward(LowerCtx &ctx) const = 0;

    /** @return Trainable parameter count (0 for stateless layers). */
    virtual uint64_t paramCount() const = 0;

  protected:
    /**
     * Intern the kernel-name stem "<name>_<op>". Layers call this at
     * construction so lowering does no string work.
     *
     * @param op Operation suffix ("fwd", "bwd_data", ...).
     */
    sim::KernelStem opStem(const char *op) const;

  private:
    std::string name_;
};

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_LAYER_HH
