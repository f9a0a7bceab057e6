/**
 * @file
 * Kernel generation implementation.
 */

#include "nn/kernel_gen.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/autotune.hh"

namespace seqpoint {
namespace nn {

sim::KernelDesc
gemmKernelForVariant(sim::KernelStem stem, int64_t m, int64_t n,
                     int64_t k, const GemmVariant &variant)
{
    panic_if(m <= 0 || n <= 0 || k <= 0, "gemm: non-positive dims");

    double dm = static_cast<double>(m);
    double dn = static_cast<double>(n);
    double dk = static_cast<double>(k);
    double nb_m = std::ceil(dm / variant.tileM);
    double nb_n = std::ceil(dn / variant.tileN);

    sim::KernelDesc kd;
    kd.stem = stem;
    kd.tileM = variant.tileM;
    kd.tileN = variant.tileN;
    kd.tileK = variant.tileK;
    kd.klass = sim::KernelClass::Gemm;
    kd.gemmM = m;
    kd.gemmN = n;
    kd.gemmK = k;
    kd.flops = 2.0 * dm * dn * dk;
    // Blocked-GEMM request volume: A re-read per column block, B per
    // row block, C written once; the 1.8 factor models imperfect
    // coalescing and halo over-fetch observed on real tiled kernels.
    kd.bytesIn = 1.8 * 4.0 * (dm * dk * nb_n + dk * dn * nb_m);
    kd.bytesOut = 4.0 * dm * dn;
    // Per-CU hot set: the LDS-resident tiles plus streaming panels.
    kd.workingSetL1 = 4.0 * (variant.tileM * variant.tileK +
        variant.tileN * variant.tileK + variant.tileM * variant.tileN) *
        8.0; // several concurrent workgroups per CU
    // Chip-wide hot set: the active A/B panels of the concurrently
    // resident workgroups (tiles walk K in lockstep), not the full
    // operand footprint -- tiled GEMMs have strong L2 locality.
    kd.workingSetL2 = 4.0 * dk *
        static_cast<double>(variant.tileM + variant.tileN) * 8.0 +
        4.0 * (dm + dn) * 64.0;
    // One 256-thread workgroup per output tile.
    kd.workItems = nb_m * nb_n * 256.0;
    // Register-blocking efficiency: small tiles do less work per
    // loaded operand, losing FMA density (64x64 is the knee).
    double tile_area = static_cast<double>(variant.tileM) *
        static_cast<double>(variant.tileN);
    kd.effScale = std::clamp(std::sqrt(tile_area) / 64.0, 0.40, 1.0);
    kd.reuseL1 = 0.35;
    kd.reuseL2 = 0.82;
    return kd;
}

sim::KernelDesc
makeGemm(sim::KernelStem stem, int64_t m, int64_t n, int64_t k)
{
    panic_if(m <= 0 || n <= 0 || k <= 0, "gemm: non-positive dims");

    sim::KernelDesc op;
    op.stem = stem;
    op.klass = sim::KernelClass::Gemm;
    op.gemmM = m;
    op.gemmN = n;
    op.gemmK = k;
    op.flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
        static_cast<double>(k);
    return op;
}

sim::KernelDesc
makeConv2d(sim::KernelStem stem, int64_t batch, int64_t in_c,
           int64_t out_c, int64_t h, int64_t w, int64_t kh, int64_t kw,
           int64_t stride_h, int64_t stride_w)
{
    int64_t oh = convOutLen(h, kh, stride_h);
    int64_t ow = convOutLen(w, kw, stride_w);

    // Implicit GEMM: M = out_c, K = in_c*kh*kw, N = batch*oh*ow.
    sim::KernelDesc op = makeGemm(stem, out_c, batch * oh * ow,
                                  in_c * kh * kw);
    // The im2col gather re-reads input rows kh*kw/stride times; fold
    // that into the request volume (implicit-GEMM kernels do the
    // gather inline).
    double overlap = static_cast<double>(kh * kw) /
        static_cast<double>(stride_h * stride_w);
    op.bytesIn = 4.0 * static_cast<double>(batch * in_c * h * w) *
        std::max(1.0, 0.25 * overlap);
    return op;
}

sim::KernelDesc
resolveKernel(const sim::KernelDesc &op, Autotuner &tuner)
{
    if (op.klass != sim::KernelClass::Gemm || op.tileM != 0)
        return op;
    return resolveKernel(op, tuner.select(op.gemmM, op.gemmN, op.gemmK));
}

sim::KernelDesc
resolveKernel(const sim::KernelDesc &op, const GemmVariant &variant)
{
    sim::KernelDesc kd = gemmKernelForVariant(op.stem, op.gemmM, op.gemmN,
                                              op.gemmK, variant);
    kd.bytesIn += op.bytesIn;
    kd.repeat = op.repeat;
    return kd;
}

sim::KernelDesc
makeSoftmax(sim::KernelStem stem, int64_t rows, int64_t cols)
{
    panic_if(rows <= 0 || cols <= 0, "softmax: non-positive dims");

    // Block-size variant: next power of two covering cols, capped.
    int64_t block = 64;
    while (block < cols && block < 1024)
        block *= 2;

    double elems = static_cast<double>(rows) * static_cast<double>(cols);

    sim::KernelDesc kd;
    kd.stem = stem;
    kd.softmaxBlock = static_cast<uint32_t>(block);
    kd.klass = sim::KernelClass::Softmax;
    kd.flops = elems * 6.0; // max, sub, exp(4)
    kd.bytesIn = elems * 4.0;
    kd.bytesOut = elems * 4.0;
    kd.workingSetL1 = static_cast<double>(cols) * 4.0;
    kd.workingSetL2 = elems * 8.0;
    kd.workItems = elems;
    kd.reuseL1 = 0.45; // row reused across the three passes
    kd.reuseL2 = 0.70;
    return kd;
}

sim::KernelDesc
makeBatchNorm(sim::KernelStem stem, int64_t elems)
{
    panic_if(elems <= 0, "batchnorm: non-positive size");
    double de = static_cast<double>(elems);

    sim::KernelDesc kd;
    kd.stem = stem;
    kd.klass = sim::KernelClass::BatchNorm;
    kd.flops = de * 5.0; // mean, var, scale, shift
    kd.bytesIn = de * 8.0; // two passes over the data
    kd.bytesOut = de * 4.0;
    kd.workingSetL1 = de * 4.0;
    kd.workingSetL2 = de * 4.0;
    kd.workItems = de;
    kd.reuseL1 = 0.15;
    kd.reuseL2 = 0.70; // second pass hits in L2 when it fits
    return kd;
}

sim::KernelDesc
makeEmbeddingGather(sim::KernelStem stem, int64_t lookups,
                    int64_t embed_dim, int64_t vocab)
{
    panic_if(lookups <= 0 || embed_dim <= 0 || vocab <= 0,
             "embedding: non-positive dims");

    double rows = static_cast<double>(lookups);
    double dim = static_cast<double>(embed_dim);
    double table = static_cast<double>(vocab) * dim * 4.0;

    sim::KernelDesc kd;
    kd.stem = stem;
    kd.klass = sim::KernelClass::Embedding;
    kd.flops = rows * dim * 0.5; // index math, copies
    kd.bytesIn = rows * dim * 4.0 + rows * 4.0;
    kd.bytesOut = rows * dim * 4.0;
    kd.workingSetL1 = dim * 4.0 * 32.0;
    kd.workingSetL2 = table; // vocabulary table is the hot set
    kd.workItems = rows * dim;
    // Zipf-like token reuse: frequent tokens hit while the table's hot
    // region fits in L2.
    kd.reuseL1 = 0.05;
    kd.reuseL2 = 0.55;
    return kd;
}

sim::KernelDesc
makeScalarOp(sim::KernelStem stem)
{
    sim::KernelDesc kd;
    kd.stem = stem;
    kd.klass = sim::KernelClass::Scalar;
    kd.flops = 64.0;
    kd.bytesIn = 256.0;
    kd.bytesOut = 64.0;
    kd.workingSetL1 = 320.0;
    kd.workingSetL2 = 320.0;
    kd.workItems = 64.0;
    kd.reuseL1 = 0.5;
    kd.reuseL2 = 0.5;
    return kd;
}

int64_t
convOutLen(int64_t in_len, int64_t kernel, int64_t stride)
{
    panic_if(in_len <= 0 || kernel <= 0 || stride <= 0,
             "convOutLen: non-positive argument");
    // SAME-style padding: ceil(in / stride).
    return (in_len + stride - 1) / stride;
}

} // namespace nn
} // namespace seqpoint
