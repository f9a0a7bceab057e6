/**
 * @file
 * ResolvedOps implementation.
 */

#include "nn/resolved_ops.hh"

#include "nn/kernel_gen.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace nn {

ResolvedOps::ResolvedOps(const sim::GpuConfig &cfg, Autotuner::Mode mode)
    : gpu(cfg), prober(mode, &gpu)
{
}

namespace {

/** The slot of `id`, allocating its chunk on first use. */
template <typename Chunk>
auto *
slotOf(std::vector<std::unique_ptr<Chunk>> &chunks, uint32_t id)
{
    const std::size_t c = id >> Chunk::kBits;
    if (c >= chunks.size())
        chunks.resize(c + 1);
    if (!chunks[c])
        chunks[c] = std::make_unique<Chunk>();
    return &chunks[c]->slots[id & (Chunk::kSize - 1)];
}

} // anonymous namespace

void
ResolvedOps::opSlots(const std::vector<uint32_t> &ops,
                     std::vector<OpSlot *> &slots)
{
    slots.resize(ops.size());
    MutexLock lock(mu);
    for (std::size_t i = 0; i < ops.size(); ++i)
        slots[i] = slotOf(opChunks, ops[i]);
}

void
ResolvedOps::shapeSlots(const std::vector<uint32_t> &shapes,
                        std::vector<ShapeSlot *> &slots)
{
    slots.resize(shapes.size());
    MutexLock lock(mu);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        slots[i] = shapes[i] == kNoShape
            ? nullptr : slotOf(shapeChunks, shapes[i]);
    }
}

void
ResolvedOps::fill(OpSlot &slot, const sim::KernelDesc &op, ShapeSlot *shape)
{
    slot.fill([&] {
        sim::KernelDesc kd = op;
        if (shape) {
            kd = resolveKernel(op, shape->fill([&] {
                return prober.tune(op.gemmM, op.gemmN, op.gemmK);
            }));
        }
        const sim::KernelTiming t = sim::timeKernel(kd, gpu.config());
        return ResolvedOp{t.timeSec, t.counters, kd.klass};
    });
}

std::size_t
ResolvedOps::residentBytes() const
{
    MutexLock lock(mu);
    std::size_t bytes = 0;
    for (const auto &c : opChunks)
        bytes += c ? sizeof(*c) : 0;
    for (const auto &c : shapeChunks)
        bytes += c ? sizeof(*c) : 0;
    return bytes;
}

} // namespace nn
} // namespace seqpoint
