/**
 * @file
 * Kernel descriptor helpers.
 */

#include "sim/kernel.hh"

#include <unordered_set>

#include "common/mutex.hh"
#include "common/strutil.hh"
#include "common/thread_annotations.hh"

namespace seqpoint {
namespace sim {

namespace {

/** The process-wide stem table; node-based, so entries never move. */
struct StemTable {
    Mutex mu;
    std::unordered_set<std::string> stems SEQ_GUARDED_BY(mu);
};

StemTable &
stemTable()
{
    // Never destroyed: handles held in statics or by threads still
    // running at exit stay valid.
    static StemTable *table = new StemTable;
    return *table;
}

} // anonymous namespace

KernelStem::KernelStem(std::string_view stem_text)
{
    StemTable &table = stemTable();
    MutexLock lock(table.mu);
    text = &*table.stems.emplace(stem_text).first;
}

const char *
kernelClassName(KernelClass klass)
{
    switch (klass) {
      case KernelClass::Gemm: return "gemm";
      case KernelClass::Elementwise: return "elementwise";
      case KernelClass::Reduction: return "reduce";
      case KernelClass::Softmax: return "softmax";
      case KernelClass::BatchNorm: return "batchnorm";
      case KernelClass::Embedding: return "embedding";
      case KernelClass::Transpose: return "transpose";
      case KernelClass::Memcpy: return "memcpy";
      case KernelClass::Scalar: return "scalar-op";
    }
    return "?";
}

std::string
KernelDesc::name() const
{
    std::string out(stem.view());
    if (tileM != 0)
        out += csprintf("_MT%ux%u_K%u", tileM, tileN, tileK);
    else if (softmaxBlock != 0)
        out += csprintf("_b%u", softmaxBlock);
    return out;
}

KernelDesc
makeElementwise(KernelStem stem, double elems,
                double flops_per_elem, double streams_in,
                double streams_out)
{
    KernelDesc k;
    k.stem = stem;
    k.klass = KernelClass::Elementwise;
    k.flops = elems * flops_per_elem;
    k.bytesIn = elems * 4.0 * streams_in;
    k.bytesOut = elems * 4.0 * streams_out;
    // Streaming kernels touch each byte once: working set is the
    // whole footprint, so only very small launches cache well.
    k.workingSetL1 = (k.bytesIn + k.bytesOut);
    k.workingSetL2 = (k.bytesIn + k.bytesOut);
    k.workItems = elems;
    k.reuseL1 = 0.10;
    k.reuseL2 = 0.55;
    return k;
}

KernelDesc
makeReduction(KernelStem stem, double elems)
{
    KernelDesc k;
    k.stem = stem;
    k.klass = KernelClass::Reduction;
    k.flops = elems;
    k.bytesIn = elems * 4.0;
    k.bytesOut = 4.0 * 64.0; // partial sums
    k.workingSetL1 = elems * 4.0;
    k.workingSetL2 = elems * 4.0;
    k.workItems = elems;
    k.reuseL1 = 0.05;
    k.reuseL2 = 0.45;
    return k;
}

KernelDesc
makeMemcpy(KernelStem stem, double bytes)
{
    KernelDesc k;
    k.stem = stem;
    k.klass = KernelClass::Memcpy;
    k.flops = 0.0;
    k.bytesIn = bytes;
    k.bytesOut = bytes;
    k.workingSetL1 = 2.0 * bytes;
    k.workingSetL2 = 2.0 * bytes;
    k.workItems = bytes / 4.0;
    k.reuseL1 = 0.0;
    k.reuseL2 = 0.35;
    return k;
}

} // namespace sim
} // namespace seqpoint
