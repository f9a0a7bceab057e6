/**
 * @file
 * Performance counter implementation.
 */

#include "sim/counters.hh"

#include "common/strutil.hh"

namespace seqpoint {
namespace sim {

std::string
PerfCounters::summary() const
{
    return csprintf(
        "kernels=%.0f valu=%.3g loads=%.3gB stores=%.3gB dram=%.3gB "
        "wr_stall=%.3gs busy=%.3gs",
        kernelsLaunched, valuInsts, bytesLoaded, bytesStored, dramBytes,
        writeStallSec, busySec);
}

void
encodeCounters(ByteWriter &w, const PerfCounters &c)
{
    w.f64(c.kernelsLaunched);
    w.f64(c.valuInsts);
    w.f64(c.saluInsts);
    w.f64(c.bytesLoaded);
    w.f64(c.bytesStored);
    w.f64(c.l1HitBytes);
    w.f64(c.l2HitBytes);
    w.f64(c.dramBytes);
    w.f64(c.writeStallSec);
    w.f64(c.busySec);
    w.f64(c.launchSec);
}

PerfCounters
decodeCounters(ByteReader &r)
{
    PerfCounters c;
    c.kernelsLaunched = r.f64();
    c.valuInsts = r.f64();
    c.saluInsts = r.f64();
    c.bytesLoaded = r.f64();
    c.bytesStored = r.f64();
    c.l1HitBytes = r.f64();
    c.l2HitBytes = r.f64();
    c.dramBytes = r.f64();
    c.writeStallSec = r.f64();
    c.busySec = r.f64();
    c.launchSec = r.f64();
    return c;
}

void
encodeCountersPacked(ByteWriter &w, const PerfCounters &c,
                     const PerfCounters &prev)
{
    w.f64Packed(c.kernelsLaunched, prev.kernelsLaunched);
    w.f64Packed(c.valuInsts, prev.valuInsts);
    w.f64Packed(c.saluInsts, prev.saluInsts);
    w.f64Packed(c.bytesLoaded, prev.bytesLoaded);
    w.f64Packed(c.bytesStored, prev.bytesStored);
    w.f64Packed(c.l1HitBytes, prev.l1HitBytes);
    w.f64Packed(c.l2HitBytes, prev.l2HitBytes);
    w.f64Packed(c.dramBytes, prev.dramBytes);
    w.f64Packed(c.writeStallSec, prev.writeStallSec);
    w.f64Packed(c.busySec, prev.busySec);
    w.f64Packed(c.launchSec, prev.launchSec);
}

PerfCounters
decodeCountersPacked(ByteReader &r, const PerfCounters &prev)
{
    PerfCounters c;
    c.kernelsLaunched = r.f64Packed(prev.kernelsLaunched);
    c.valuInsts = r.f64Packed(prev.valuInsts);
    c.saluInsts = r.f64Packed(prev.saluInsts);
    c.bytesLoaded = r.f64Packed(prev.bytesLoaded);
    c.bytesStored = r.f64Packed(prev.bytesStored);
    c.l1HitBytes = r.f64Packed(prev.l1HitBytes);
    c.l2HitBytes = r.f64Packed(prev.l2HitBytes);
    c.dramBytes = r.f64Packed(prev.dramBytes);
    c.writeStallSec = r.f64Packed(prev.writeStallSec);
    c.busySec = r.f64Packed(prev.busySec);
    c.launchSec = r.f64Packed(prev.launchSec);
    return c;
}

} // namespace sim
} // namespace seqpoint
