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

} // namespace sim
} // namespace seqpoint
