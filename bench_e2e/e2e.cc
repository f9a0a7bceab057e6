/**
 * @file
 * End-to-end benchmark support code.
 */

#include "e2e.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

namespace e2e {

using namespace seqpoint;

const char *
netName(Net net)
{
    return net == Net::Gnmt ? "GNMT" : "DS2";
}

harness::Workload
makeWorkload(Net net, uint64_t seed)
{
    return net == Net::Gnmt ? harness::makeGnmtWorkload(seed)
                            : harness::makeDs2Workload(seed);
}

namespace {

/** Draws dataset seeds that never repeat within one plan. */
class SeedSource
{
  public:
    explicit SeedSource(Rng &r) : rng(r), used{kReferenceSeed} {}

    uint64_t
    next()
    {
        for (;;) {
            uint64_t s = rng.next32();
            if (used.insert(s).second)
                return s;
        }
    }

  private:
    Rng &rng;
    std::set<uint64_t> used;
};

unsigned
drawTarget(Rng &rng)
{
    return static_cast<unsigned>(
        rng.uniformInt(kFirstTarget, kNumConfigs - 1));
}

} // anonymous namespace

Plan
makePlan(uint64_t seed, const PlanSizes &sizes)
{
    Rng rng(seed, 0xe2e);
    SeedSource seeds(rng);
    Plan plan;

    plan.cold.reserve(sizes.coldQueries);
    while (plan.cold.size() < sizes.coldQueries) {
        // One block: kColdBlock - 1 GNMT queries and one DS2 query at a
        // seeded position.
        std::size_t ds2_at = static_cast<std::size_t>(
            rng.uniformInt(0, kColdBlock - 1));
        for (std::size_t i = 0;
             i < kColdBlock && plan.cold.size() < sizes.coldQueries; ++i) {
            ColdQuery q;
            q.net = i == ds2_at ? Net::Ds2 : Net::Gnmt;
            q.datasetSeed = seeds.next();
            q.target = drawTarget(rng);
            plan.cold.push_back(q);
        }
    }

    for (Net net : {Net::Ds2, Net::Gnmt})
        plan.sweeps.push_back(SweepInput{net, kReferenceSeed});
    for (std::size_t s = 0; s < sizes.sweepSeeds; ++s) {
        for (Net net : {Net::Ds2, Net::Gnmt})
            plan.sweeps.push_back(SweepInput{net, seeds.next()});
    }

    auto allConfigs = [&](std::vector<Pair> &out, std::size_t per_net) {
        for (std::size_t s = 0; s < per_net; ++s) {
            for (Net net : {Net::Gnmt, Net::Ds2}) {
                uint64_t ds = seeds.next();
                for (unsigned c = 0; c < kNumConfigs; ++c)
                    out.push_back(Pair{net, ds, c});
            }
        }
    };
    allConfigs(plan.grid, sizes.gridSeeds);
    allConfigs(plan.trickle, sizes.trickleSeeds);

    // Seeded popularity and arrival orders (Fisher-Yates).
    auto shuffle = [&rng](std::vector<Pair> &v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int64_t>(i - 1)));
            std::swap(v[i - 1], v[j]);
        }
    };
    shuffle(plan.grid);
    shuffle(plan.trickle);
    return plan;
}

WarmStream::WarmStream(const Plan &plan, uint64_t seed, unsigned client_,
                       unsigned clients_, uint64_t cold_every)
    : rng(seed, 0x3a7f00 + client_), trickleSize(plan.trickle.size()),
      client(client_), clients(clients_), coldEvery(cold_every)
{
    double total = 0.0;
    for (std::size_t r = 0; r < plan.grid.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf.push_back(total);
    }
    for (double &c : cdf)
        c /= total;
}

WarmStream::Pick
WarmStream::next()
{
    ++sent;
    std::size_t trickle_index = client + coldSent * clients;
    if (coldEvery && sent % coldEvery == 0 && trickle_index < trickleSize) {
        ++coldSent;
        return Pick{true, trickle_index};
    }
    double u = rng.uniformDouble();
    auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    std::size_t rank = static_cast<std::size_t>(it - cdf.begin());
    return Pick{false, std::min(rank, cdf.size() - 1)};
}

std::optional<double>
supportedPercentile(std::vector<double> xs, double p)
{
    if (xs.empty() || !(p > 0.0 && p < 100.0))
        return std::nullopt;
    std::sort(xs.begin(), xs.end());
    double n = static_cast<double>(xs.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::max<std::size_t>(rank, 1);
    if (xs.size() - rank < 10)
        return std::nullopt;
    return xs[rank - 1];
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Outcome
classify(const Status &status, bool matches_reference)
{
    if (status.ok())
        return matches_reference ? Outcome::Ok : Outcome::Mismatch;
    switch (status.code()) {
      case ErrorCode::Overloaded: return Outcome::Shed;
      case ErrorCode::Timeout: return Outcome::Timeout;
      default: return Outcome::Failed;
    }
}

void
Tally::add(Outcome outcome)
{
    ++attempted;
    switch (outcome) {
      case Outcome::Ok: break;
      case Outcome::Shed: ++shed; break;
      case Outcome::Timeout: ++timedOut; break;
      case Outcome::Mismatch: ++mismatched; break;
      case Outcome::Failed: ++otherFailed; break;
    }
}

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    shed += other.shed;
    timedOut += other.timedOut;
    mismatched += other.mismatched;
    otherFailed += other.otherFailed;
}

uint64_t
Tally::failed() const
{
    return shed + timedOut + mismatched + otherFailed;
}

double
Tally::failedFrac() const
{
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
}

uint32_t
Tracer::begin(const char *name, uint32_t parent, uint32_t request)
{
    if (!on)
        return 0;
    double start = nowSec();
    MutexLock lock(mu);
    SpanRecord r;
    r.name = name;
    r.id = static_cast<uint32_t>(records.size() + 1);
    r.parent = parent;
    r.request = request;
    r.startSec = start;
    records.push_back(std::move(r));
    return records.back().id;
}

void
Tracer::end(uint32_t id)
{
    if (id == 0)
        return;
    double stop = nowSec();
    MutexLock lock(mu);
    records[id - 1].endSec = stop;
}

void
Tracer::record(const char *name, uint32_t parent, uint32_t request,
               double start_sec, double end_sec)
{
    if (!on)
        return;
    MutexLock lock(mu);
    SpanRecord r;
    r.name = name;
    r.id = static_cast<uint32_t>(records.size() + 1);
    r.parent = parent;
    r.request = request;
    r.startSec = start_sec;
    r.endSec = end_sec;
    records.push_back(std::move(r));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    MutexLock lock(mu);
    return records;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    MutexLock lock(mu);
    std::vector<double> out;
    for (const SpanRecord &r : records) {
        if (r.name == name)
            out.push_back(r.seconds());
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    MutexLock lock(mu);
    char line[256];
    for (const SpanRecord &r : records) {
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,"
                      "\"request\":%u,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                      r.name.c_str(), r.id, r.parent, r.request, r.startSec,
                      r.endSec);
        out << line;
    }
    return static_cast<bool>(out);
}

} // namespace e2e
