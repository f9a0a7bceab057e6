/**
 * @file
 * GPU configuration implementation and Table II presets.
 */

#include "sim/gpu_config.hh"

#include <bit>

namespace seqpoint {
namespace sim {

double
GpuConfig::peakFlops() const
{
    // Each lane retires one FMA (2 FLOPs) per cycle at peak.
    return 2.0 * static_cast<double>(totalLanes()) * gclkHz;
}

unsigned
GpuConfig::totalLanes() const
{
    return numCus * simdsPerCu * lanesPerSimd;
}

double
GpuConfig::l1Bandwidth() const
{
    if (!hasL1())
        return 0.0;
    return l1BytesPerCycle * static_cast<double>(numCus) * gclkHz;
}

double
GpuConfig::l2Bandwidth() const
{
    if (!hasL2())
        return 0.0;
    return l2BytesPerCycle * gclkHz;
}

GpuConfig
GpuConfig::config1()
{
    GpuConfig cfg;
    cfg.name = "config#1";
    return cfg;
}

GpuConfig
GpuConfig::config2()
{
    GpuConfig cfg;
    cfg.name = "config#2";
    cfg.gclkHz = mhz(852.0);
    return cfg;
}

GpuConfig
GpuConfig::config3()
{
    GpuConfig cfg;
    cfg.name = "config#3";
    cfg.numCus = 16;
    return cfg;
}

GpuConfig
GpuConfig::config4()
{
    GpuConfig cfg;
    cfg.name = "config#4";
    cfg.l1SizeBytes = 0;
    return cfg;
}

GpuConfig
GpuConfig::config5()
{
    GpuConfig cfg;
    cfg.name = "config#5";
    cfg.l2SizeBytes = 0;
    return cfg;
}

std::vector<GpuConfig>
GpuConfig::table2()
{
    return {config1(), config2(), config3(), config4(), config5()};
}

void
encodeGpuConfig(ByteWriter &w, const GpuConfig &cfg)
{
    w.str(cfg.name);
    w.f64(cfg.gclkHz);
    w.u32(cfg.numCus);
    w.u32(cfg.simdsPerCu);
    w.u32(cfg.lanesPerSimd);
    w.u32(cfg.maxWavesPerCu);
    w.u32(cfg.waveSize);
    w.u64(cfg.l1SizeBytes);
    w.u32(cfg.l1Assoc);
    w.u64(cfg.l2SizeBytes);
    w.u32(cfg.l2Assoc);
    w.u32(cfg.lineBytes);
    w.f64(cfg.l1BytesPerCycle);
    w.f64(cfg.l2BytesPerCycle);
    w.f64(cfg.dramBandwidth);
    w.f64(cfg.dramEfficiency);
    w.f64(cfg.launchOverheadSec);
    w.f64(cfg.writeDrainFraction);
}

GpuConfig
decodeGpuConfig(ByteReader &r)
{
    GpuConfig cfg;
    cfg.name = r.str();
    cfg.gclkHz = r.f64();
    cfg.numCus = r.u32();
    cfg.simdsPerCu = r.u32();
    cfg.lanesPerSimd = r.u32();
    cfg.maxWavesPerCu = r.u32();
    cfg.waveSize = r.u32();
    cfg.l1SizeBytes = r.u64();
    cfg.l1Assoc = r.u32();
    cfg.l2SizeBytes = r.u64();
    cfg.l2Assoc = r.u32();
    cfg.lineBytes = r.u32();
    cfg.l1BytesPerCycle = r.f64();
    cfg.l2BytesPerCycle = r.f64();
    cfg.dramBandwidth = r.f64();
    cfg.dramEfficiency = r.f64();
    cfg.launchOverheadSec = r.f64();
    cfg.writeDrainFraction = r.f64();
    return cfg;
}

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

} // anonymous namespace

bool
sameEncodedConfig(const GpuConfig &a, const GpuConfig &b)
{
    return a.name == b.name && sameBits(a.gclkHz, b.gclkHz) &&
        a.numCus == b.numCus && a.simdsPerCu == b.simdsPerCu &&
        a.lanesPerSimd == b.lanesPerSimd &&
        a.maxWavesPerCu == b.maxWavesPerCu &&
        a.waveSize == b.waveSize && a.l1SizeBytes == b.l1SizeBytes &&
        a.l1Assoc == b.l1Assoc && a.l2SizeBytes == b.l2SizeBytes &&
        a.l2Assoc == b.l2Assoc && a.lineBytes == b.lineBytes &&
        sameBits(a.l1BytesPerCycle, b.l1BytesPerCycle) &&
        sameBits(a.l2BytesPerCycle, b.l2BytesPerCycle) &&
        sameBits(a.dramBandwidth, b.dramBandwidth) &&
        sameBits(a.dramEfficiency, b.dramEfficiency) &&
        sameBits(a.launchOverheadSec, b.launchOverheadSec) &&
        sameBits(a.writeDrainFraction, b.writeDrainFraction);
}

} // namespace sim
} // namespace seqpoint
