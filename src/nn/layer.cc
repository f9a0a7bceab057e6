/**
 * @file
 * Layer base implementation.
 */

#include "nn/layer.hh"

#include "common/logging.hh"

namespace seqpoint {
namespace nn {

int64_t
LowerCtx::steps(TimeAxis axis, int64_t fixed_steps) const
{
    switch (axis) {
      case TimeAxis::Source:
        return seqLen;
      case TimeAxis::Target:
        return tgtLen;
      case TimeAxis::Fixed:
        return fixed_steps;
    }
    panic("LowerCtx::steps: bad axis");
    return 1; // unreachable
}

Layer::Layer(std::string name)
    : name_(std::move(name))
{
    panic_if(name_.empty(), "Layer: empty name");
}

sim::KernelStem
Layer::opStem(const char *op) const
{
    return sim::KernelStem(name_ + "_" + op);
}

} // namespace nn
} // namespace seqpoint
