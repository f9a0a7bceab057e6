/**
 * @file
 * Kernel generation helpers: lower individual tensor operations
 * (GEMM, implicit-GEMM convolution, softmax, batch-norm, embedding,
 * transpose) into sim::KernelDesc records with realistic FLOP and
 * memory-request volumes. Every builder takes an interned name stem
 * and does no string work; variant suffixes (GEMM tile, softmax
 * block) are recorded as descriptor fields for KernelDesc::name().
 *
 * GEMM and convolution builders emit *unresolved* ops: the shape is
 * fixed but the tile is not, because the winning tile depends on the
 * device the autotuner measures on. resolveKernel() picks the tile
 * and fills in the variant-dependent traffic, so a lowered iteration
 * stays device-independent until it is resolved for one device.
 */

#ifndef SEQPOINT_NN_KERNEL_GEN_HH
#define SEQPOINT_NN_KERNEL_GEN_HH

#include <cstdint>

#include "sim/kernel.hh"

namespace seqpoint {
namespace nn {

class Autotuner;
struct GemmVariant;

/**
 * Build a GEMM kernel for an explicit variant (no tuner consulted).
 *
 * Traffic follows the classic blocked-GEMM model: the A panel is
 * re-read once per column block and B once per row block, after
 * register/LDS blocking inside a tile.
 *
 * @param stem Logical operation name (e.g. "fc1_fwd").
 * @param m Rows of A/C.
 * @param n Columns of B/C.
 * @param k Inner dimension.
 * @param variant Tiling choice.
 */
sim::KernelDesc gemmKernelForVariant(sim::KernelStem stem, int64_t m,
                                     int64_t n, int64_t k,
                                     const GemmVariant &variant);

/**
 * An unresolved GEMM op: the shape and FLOPs, no tile yet (see
 * resolveKernel()).
 *
 * @param stem Logical operation name.
 * @param m Rows of A/C.
 * @param n Columns of B/C.
 * @param k Inner dimension.
 */
sim::KernelDesc makeGemm(sim::KernelStem stem, int64_t m, int64_t n,
                         int64_t k);

/**
 * Implicit-GEMM convolution as an unresolved GEMM op: filters
 * [out_c, in_c, kh, kw] over an input [batch, in_c, h, w] with the
 * given strides. Until resolution, bytesIn holds only the im2col
 * gather's extra request volume, which resolveKernel() adds to the
 * chosen variant's blocked-GEMM traffic.
 *
 * @param stem Full operation name: by convention the layer's forward
 *             stem plus "_igemm" (e.g. "conv1_fwd_igemm").
 * @param batch Batch size.
 * @param in_c Input channels.
 * @param out_c Output channels.
 * @param h Input height (time axis for DS2).
 * @param w Input width (frequency axis for DS2).
 * @param kh Kernel height.
 * @param kw Kernel width.
 * @param stride_h Stride along h.
 * @param stride_w Stride along w.
 */
sim::KernelDesc makeConv2d(sim::KernelStem stem, int64_t batch,
                           int64_t in_c, int64_t out_c, int64_t h,
                           int64_t w, int64_t kh, int64_t kw,
                           int64_t stride_h, int64_t stride_w);

/**
 * Resolve an op for a device: an unresolved GEMM gets the tuner's
 * variant for its shape (keeping its stem, repeat and any extra
 * request volume); every other descriptor is returned unchanged.
 *
 * @param op Descriptor from a builder in this file.
 * @param tuner Variant source (caches per shape).
 */
sim::KernelDesc resolveKernel(const sim::KernelDesc &op,
                              Autotuner &tuner);

/**
 * Fused softmax over `rows` rows of `cols` elements. The block-size
 * variant (chosen from cols) is part of the kernel name.
 */
sim::KernelDesc makeSoftmax(sim::KernelStem stem, int64_t rows,
                            int64_t cols);

/** Batch-norm statistics + normalisation over `elems` elements. */
sim::KernelDesc makeBatchNorm(sim::KernelStem stem, int64_t elems);

/**
 * Embedding-table gather: `lookups` rows of `embed_dim` from a
 * `vocab`-row table. The table is the L2-visible working set, so
 * vocabulary size directly affects runtime (paper observation 6).
 */
sim::KernelDesc makeEmbeddingGather(sim::KernelStem stem,
                                    int64_t lookups, int64_t embed_dim,
                                    int64_t vocab);

/** Tiny scalar bookkeeping launch (optimizer counters, LR decay). */
sim::KernelDesc makeScalarOp(sim::KernelStem stem);

/** Conv output length for one spatial axis. */
int64_t convOutLen(int64_t in_len, int64_t kernel, int64_t stride);

} // namespace nn
} // namespace seqpoint

#endif // SEQPOINT_NN_KERNEL_GEN_HH
