/**
 * @file
 * Kernel descriptors: the interface between the NN lowering library and
 * the GPU timing model. A KernelDesc captures everything the simulator
 * needs -- operation class, FLOPs, global-memory request volumes,
 * working sets and available parallelism -- plus a recipe for its
 * mangled name, used by the paper's unique-kernel analyses (Figs 5
 * and 6).
 *
 * Descriptors are name-free: lowering emits tens of thousands of them
 * per query and the timing model never reads a name, so a descriptor
 * carries an interned stem handle (KernelStem) plus its variant
 * fields -- the GEMM tile or the softmax block -- and KernelDesc::name()
 * builds the mangled string ("fc1_fwd_MT64x64_K16", "loss_softmax_fwd_b1024")
 * only when a detailed record asks for it.
 */

#ifndef SEQPOINT_SIM_KERNEL_HH
#define SEQPOINT_SIM_KERNEL_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace seqpoint {
namespace sim {

/** Broad operation classes that the lowering library emits. */
enum class KernelClass {
    Gemm,        ///< Dense matrix multiply (incl. implicit-GEMM conv).
    Elementwise, ///< Pointwise math: activations, gate math, adds.
    Reduction,   ///< Reductions: losses, norm statistics, grad sums.
    Softmax,     ///< Fused softmax (attention scores / final layer).
    BatchNorm,   ///< Batch-norm statistics + normalisation.
    Embedding,   ///< Vocabulary-table gather / scatter.
    Transpose,   ///< Layout changes (time-major <-> batch-major).
    Memcpy,      ///< Bulk copies (padding, reorder buffers).
    Scalar,      ///< Tiny bookkeeping launches (optimizer scalars).
};

/** @return Short stable name for a kernel class ("gemm", ...). */
const char *kernelClassName(KernelClass klass);

/** Number of distinct KernelClass values. */
constexpr unsigned numKernelClasses = 9;

/**
 * Interned kernel-name stem ("fc1_fwd", "lstm_wx_bwd_wgrad", ...).
 *
 * A stem is a handle into a process-wide, append-only intern table.
 * Interning takes the table's lock, so it happens once per stem:
 * layers intern the stems derived from their instance name at
 * construction, and constant stems live in function-local statics.
 * Copying, comparing and resolving a handle are pointer operations
 * that take no lock -- interned text is immutable and never freed.
 */
class KernelStem
{
  public:
    /** The empty stem. */
    KernelStem() = default;

    /**
     * Intern a stem (thread-safe; equal texts share one entry).
     *
     * @param text Stem text.
     */
    explicit KernelStem(std::string_view text);

    /** @return The stem text. */
    std::string_view
    view() const
    {
        return text ? std::string_view(*text) : std::string_view();
    }

    /** Handles are equal exactly when their texts are. */
    bool operator==(const KernelStem &other) const = default;

  private:
    const std::string *text = nullptr;
};

/**
 * One GPU kernel launch as seen by the timing model.
 *
 * `bytesIn`/`bytesOut` are global-memory *request* volumes after
 * register/LDS blocking (i.e. what reaches the L1), not algorithmic
 * footprints. `workingSetL1` is the per-CU hot set, `workingSetL2` the
 * chip-wide hot set; the cache model turns these into hit fractions.
 */
struct KernelDesc {
    /** Interned name stem: the logical operation ("fc1_fwd"). */
    KernelStem stem;

    /**
     * GEMM tile variant the name carries as "_MT<M>x<N>_K<K>"
     * (all 0 when the kernel has no tile variant). A Gemm-class
     * descriptor with tileM == 0 is an unresolved op whose tile the
     * autotuner has yet to choose (nn::resolveKernel()).
     */
    uint32_t tileM = 0;
    uint32_t tileN = 0; ///< GEMM tile columns (see tileM).
    uint32_t tileK = 0; ///< GEMM K-panel depth (see tileM).

    /** Softmax block variant the name carries as "_b<block>" (0: none). */
    uint32_t softmaxBlock = 0;

    /** Operation class. */
    KernelClass klass = KernelClass::Elementwise;

    /** Total floating-point operations. */
    double flops = 0.0;

    /** Bytes requested from the memory system (loads). */
    double bytesIn = 0.0;

    /** Bytes written toward memory (stores). */
    double bytesOut = 0.0;

    /** Per-CU working set in bytes (L1-visible hot data). */
    double workingSetL1 = 0.0;

    /** Chip-wide working set in bytes (L2-visible hot data). */
    double workingSetL2 = 0.0;

    /** Total work-items in the launch grid. */
    double workItems = 0.0;

    /**
     * Back-to-back launches of this exact kernel (e.g. one per RNN
     * time step). Timing and counters scale linearly; the name is
     * still counted once in unique-kernel analyses.
     */
    uint64_t repeat = 1;

    /** GEMM dimensions when klass == Gemm (0 otherwise). */
    int64_t gemmM = 0;
    int64_t gemmN = 0; ///< GEMM N dimension.
    int64_t gemmK = 0; ///< GEMM K dimension.

    /**
     * Implementation-efficiency scale in (0, 1]: how close this
     * kernel variant gets to its class's peak efficiency (small GEMM
     * tiles lose register blocking, for example).
     */
    double effScale = 1.0;

    /**
     * Fraction of loads that hit in L1 at full capacity; class- and
     * shape-dependent, filled in by the lowering library.
     */
    double reuseL1 = 0.0;

    /** Fraction of L1 misses that hit in an unbounded L2. */
    double reuseL2 = 0.0;

    /** @return Total bytes moved (loads + stores). */
    double totalBytes() const { return bytesIn + bytesOut; }

    /**
     * @return The mangled kernel name: the stem plus its tile or
     *         block variant suffix. Built on every call; only the
     *         detailed-record paths need it.
     */
    std::string name() const;
};

/**
 * Convenience builder for elementwise kernels.
 *
 * @param stem Kernel name stem.
 * @param elems Number of elements processed.
 * @param flops_per_elem FLOPs per element.
 * @param streams_in Number of distinct input operands streamed.
 * @param streams_out Number of distinct output operands streamed.
 */
KernelDesc makeElementwise(KernelStem stem, double elems,
                           double flops_per_elem, double streams_in,
                           double streams_out);

/**
 * Convenience builder for reduction kernels over `elems` inputs.
 */
KernelDesc makeReduction(KernelStem stem, double elems);

/**
 * Convenience builder for memcpy-like kernels moving `bytes` bytes.
 */
KernelDesc makeMemcpy(KernelStem stem, double bytes);

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_KERNEL_HH
