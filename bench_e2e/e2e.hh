/**
 * @file
 * Support code of the end-to-end benchmark (bench_e2e/main.cc): the
 * seeded input plan, the percentile and failure accounting rules, and
 * the in-memory span tracer. Everything here is a pure function of its
 * arguments or a plain recorder, so the unit tests in test_e2e.cc can
 * pin it down without running the simulator.
 */

#ifndef SEQPOINT_BENCH_E2E_E2E_HH
#define SEQPOINT_BENCH_E2E_E2E_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/thread_annotations.hh"
#include "harness/workloads.hh"

namespace e2e {

/** The two evaluated networks of the paper. */
enum class Net : uint8_t { Gnmt, Ds2 };

/** @return "GNMT" or "DS2". */
const char *netName(Net net);

/** @return The repository's workload for `net` on dataset `seed`. */
seqpoint::harness::Workload makeWorkload(Net net, uint64_t seed);

/**
 * Dataset seed of the reference figure sweeps: the seed every figure
 * bench and the paper-reproduction defaults use. SeqPoint's accuracy is
 * read on these sweeps so that it does not move with the run's seed.
 */
constexpr uint64_t kReferenceSeed = 23;

/** Configurations a query may target: Table II #2..#5 (#1 is the
 *  reference every selection is built on). */
constexpr unsigned kFirstTarget = 1;
constexpr unsigned kNumConfigs = 5;

/** Cold queries come in blocks of this many, one of them DS2. */
constexpr std::size_t kColdBlock = 5;

/** One cold query: a never-seen (network, dataset seed, target). */
struct ColdQuery {
    Net net = Net::Gnmt;
    uint64_t datasetSeed = 0;
    unsigned target = kFirstTarget; ///< Index into GpuConfig::table2().

    bool operator==(const ColdQuery &other) const = default;
};

/** One (network, dataset seed, configuration) pair of the service. */
struct Pair {
    Net net = Net::Gnmt;
    uint64_t datasetSeed = 0;
    unsigned config = 0; ///< Index into GpuConfig::table2().

    bool operator==(const Pair &other) const = default;
};

/** One figure-sweep input: a network on one dataset seed. */
struct SweepInput {
    Net net = Net::Gnmt;
    uint64_t datasetSeed = 0;

    bool operator==(const SweepInput &other) const = default;
};

/** How many inputs of each kind a plan holds. */
struct PlanSizes {
    std::size_t coldQueries = 0;  ///< Cold-query list length.
    std::size_t sweepSeeds = 0;   ///< Seeded sweeps per network.
    std::size_t gridSeeds = 0;    ///< Pre-warmed seeds per network.
    std::size_t trickleSeeds = 0; ///< Never-seen seeds per network.
};

/**
 * Every input one run uses, drawn from the workload seed. Dataset seeds
 * never repeat across or within the lists, so no query can reuse state
 * another one built; only the reference sweeps are the same in every
 * plan.
 */
struct Plan {
    /** Cold queries, one DS2 in every block of kColdBlock, so the p50
     *  is a GNMT latency and the p90 the median DS2 latency whatever
     *  the seed. */
    std::vector<ColdQuery> cold;
    /** Figure-sweep inputs: both networks on kReferenceSeed, then on
     *  every seeded sweep seed. */
    std::vector<SweepInput> sweeps;
    /** Pre-warmed service pairs in popularity (Zipf rank) order. */
    std::vector<Pair> grid;
    /** Never-seen service pairs, sent at most once each. */
    std::vector<Pair> trickle;

    bool operator==(const Plan &other) const = default;
};

/** @return The plan for `seed`. */
Plan makePlan(uint64_t seed, const PlanSizes &sizes);

/**
 * One client's query stream over a plan's service pairs: Zipf-popular
 * picks over the grid, with every `cold_every`-th pick replaced by the
 * client's next never-seen pair (client c of n takes trickle entries
 * c, c + n, ...), until its share of the trickle runs out.
 */
class WarmStream
{
  public:
    /** One pick: an index into Plan::grid, or into Plan::trickle. */
    struct Pick {
        bool cold = false;
        std::size_t index = 0;

        bool operator==(const Pick &other) const = default;
    };

    WarmStream(const Plan &plan, uint64_t seed, unsigned client,
               unsigned clients, uint64_t cold_every);

    /** @return The next pick. */
    Pick next();

  private:
    seqpoint::Rng rng;
    std::vector<double> cdf; ///< Zipf(1) over grid ranks.
    std::size_t trickleSize;
    unsigned client;
    unsigned clients;
    uint64_t coldEvery;
    uint64_t sent = 0;
    std::size_t coldSent = 0;
};

/**
 * Nearest-rank percentile `p` (0 < p < 100) of `xs`, reported only when
 * at least ten samples lie above it; a tail percentile read off fewer
 * samples is not a measurement.
 */
std::optional<double> supportedPercentile(std::vector<double> xs,
                                          double p);

/** @return The median of `xs` (0 for an empty input). */
double median(std::vector<double> xs);

/** How one attempted operation ended. */
enum class Outcome { Ok, Shed, Timeout, Mismatch, Failed };

/**
 * Classify an answered operation: a refusal (Overloaded) is a shed, a
 * Timeout a timeout, any other error a failure, and an OK answer that
 * differs from its reference a mismatch.
 */
Outcome classify(const seqpoint::Status &status, bool matches_reference);

/** Attempted operations and how they failed. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t shed = 0;
    uint64_t timedOut = 0;
    uint64_t mismatched = 0;
    uint64_t otherFailed = 0;

    void add(Outcome outcome);
    void merge(const Tally &other);

    /** @return Every operation that did not end Ok. */
    uint64_t failed() const;

    /** @return failed() / attempted (0 when nothing was attempted). */
    double failedFrac() const;
};

/** @return Seconds on the steady clock. */
inline double
nowSec()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

/** One recorded span. Ids start at 1; parent 0 marks a root. */
struct SpanRecord {
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0;
    uint32_t request = 0; ///< Spans of one request share this.
    double startSec = 0.0;
    double endSec = 0.0;

    double seconds() const { return endSec - startSec; }
};

/**
 * In-memory span recorder. Disabled tracers record nothing and hand out
 * id 0; enabled ones are safe to share between threads.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    /** Open a span; returns its id (0 when disabled). */
    uint32_t begin(const char *name, uint32_t parent, uint32_t request)
        SEQ_EXCLUDES(mu);

    /** Close span `id` (ignored for 0). */
    void end(uint32_t id) SEQ_EXCLUDES(mu);

    /** Record an already finished span (no-op when disabled). */
    void record(const char *name, uint32_t parent, uint32_t request,
                double start_sec, double end_sec) SEQ_EXCLUDES(mu);

    /** @return Every span recorded so far, in opening order. */
    std::vector<SpanRecord> spans() const SEQ_EXCLUDES(mu);

    /** @return Duration of each span named `name`, in seconds. */
    std::vector<double> durations(const std::string &name) const
        SEQ_EXCLUDES(mu);

    /** Write every span as one JSON object per line; false on error. */
    bool write(const std::string &path) const SEQ_EXCLUDES(mu);

  private:
    const bool on;
    mutable seqpoint::Mutex mu;
    std::vector<SpanRecord> records SEQ_GUARDED_BY(mu);
};

/** RAII span: open on construction, close on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, uint32_t parent = 0,
         uint32_t request = 0)
        : tr(tracer), id_(tracer.begin(name, parent, request))
    {
    }
    ~Span() { tr.end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint32_t id() const { return id_; }

  private:
    Tracer &tr;
    uint32_t id_;
};

} // namespace e2e

#endif // SEQPOINT_BENCH_E2E_E2E_HH
