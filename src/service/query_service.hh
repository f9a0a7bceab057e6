/**
 * @file
 * Deadline-aware SeqPoint query service: the repository's answer to
 * "give me the SeqPoints + predicted runtime/error for (workload,
 * configuration, run-params)" under heavy concurrent traffic.
 *
 * The paper's value proposition is that this query is orders of
 * magnitude cheaper than full-epoch profiling once the per-SL
 * profiles exist: an answer is Eq. 1 over a handful of
 * representative SLs. One shared SnapshotRegistry supplies each
 * (workload, config) pair's snapshot (single-flight per identity,
 * optionally disk-persistent). The first query on a pair computes
 * all five selectors' answers from that snapshot once and keeps them
 * as an immutable record; every later query on the pair copies one.
 *
 * Robustness is the design center, not throughput:
 *
 *   - Admission control: a bounded queue; a full queue (or a
 *     draining service) sheds new requests immediately with
 *     ErrorCode::Overloaded instead of growing without bound.
 *   - Deadlines: every request carries a CancelToken; the expensive
 *     loops (profiling sweeps, epoch assembly, snapshot decode,
 *     scheduler cells) poll it at checkpoints, so a slow cold start
 *     returns a classified Timeout instead of wedging a worker.
 *   - Dedup: concurrent identical queries ride one underlying build
 *     through the registry's single-flight slot (plus the per-pair
 *     warm entry), so a thundering herd pays one cold start.
 *   - Graceful drain: stop admitting, give in-flight requests a
 *     fixed budget to finish, cancel the stragglers, persist any
 *     snapshot the store missed, then join everything.
 *   - Watchdog: a background thread reports workers that have been
 *     busy on one request suspiciously long.
 */

#ifndef SEQPOINT_SERVICE_QUERY_SERVICE_HH
#define SEQPOINT_SERVICE_QUERY_SERVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bounded_queue.hh"
#include "common/cancel.hh"
#include "common/mutex.hh"
#include "common/status.hh"
#include "common/thread_annotations.hh"
#include "core/baselines.hh"
#include "core/seqpoint.hh"
#include "harness/snapshot_registry.hh"
#include "harness/workloads.hh"
#include "sim/gpu.hh"

namespace seqpoint {
namespace service {

/** One SeqPoint query. */
struct QueryRequest {
    std::string workload;    ///< Registered workload name.
    sim::GpuConfig config;   ///< Target hardware configuration.
    core::SelectorKind selector = core::SelectorKind::SeqPoint;
    /** Per-request deadline in seconds (infinity = none). */
    double deadlineSec = std::numeric_limits<double>::infinity();
};

/** The service's answer to one query (valid when status is OK). */
struct QueryAnswer {
    core::SeqPointSet selection; ///< The selector's representative set.
    double projectedSec = 0.0;   ///< SeqPoint-projected epoch time.
    double actualSec = 0.0;      ///< Full-epoch reference time.
    double errorPct = 0.0;       ///< |projected-actual|/actual * 100.
};

/** Terminal outcome of one query. */
struct QueryResult {
    Status status;          ///< OK, or the classified failure/shed.
    QueryAnswer answer;     ///< Valid when status.ok().
    bool coldBuild = false; ///< This request paid the snapshot build.
    double latencySec = 0.0; ///< Submit-to-completion wall time.
};

/**
 * Handle to a submitted query: lets the submitter wait for the
 * result and cancel the request. Shared between the submitter and
 * the worker executing it.
 */
class PendingQuery
{
  public:
    explicit PendingQuery(QueryRequest req);

    /** @return The request as submitted. */
    const QueryRequest &request() const { return req; }

    /** @return The request's cancellation token. */
    CancelToken &token() { return token_; }

    /** Fire the token: the request unwinds at its next checkpoint. */
    void cancel() { token_.cancel(); }

    /** Block until the result is available and return it. */
    QueryResult wait() SEQ_EXCLUDES(mu);

  private:
    friend class QueryService;

    /** Publish the result and wake every waiter (exactly once). */
    void complete(QueryResult r) SEQ_EXCLUDES(mu);

    QueryRequest req;
    CancelToken token_;
    double submitSec = 0.0; ///< CancelToken::now() at submit.

    mutable Mutex mu;
    CondVar cv;
    bool done_ SEQ_GUARDED_BY(mu) = false;
    QueryResult result SEQ_GUARDED_BY(mu);
};

using PendingPtr = std::shared_ptr<PendingQuery>;

/** Service construction knobs. */
struct ServiceConfig {
    unsigned workers = 4;          ///< Request-serving threads.
    std::size_t queueCapacity = 16; ///< Admission-control bound.
    unsigned profileThreads = 1;   ///< Inner sweep width per build.
    std::string storeDir;          ///< Snapshot store ("" = memory).
};

/** Service-level accounting (all monotonic counters). */
struct ServiceStats {
    uint64_t admitted = 0;      ///< Requests accepted into the queue.
    uint64_t shedOverload = 0;  ///< Refused: queue full or draining.
    uint64_t completed = 0;     ///< Answered with an OK result.
    uint64_t deadlineMissed = 0; ///< Classified Timeout results.
    uint64_t cancelled = 0;     ///< Classified Cancelled results.
    uint64_t failed = 0;        ///< Other classified failures.
    uint64_t coldBuilds = 0;    ///< Answers that paid a snapshot build.
    uint64_t warmHits = 0;      ///< Answers served from warm state.
    uint64_t stuckReports = 0;  ///< Watchdog stuck-worker reports.
};

/**
 * The deadline-aware query service. Register workloads, start(),
 * submit()/query() from any number of client threads, drain() to
 * shut down. All public methods are thread-safe after start().
 */
class QueryService
{
  public:
    explicit QueryService(ServiceConfig cfg = ServiceConfig());

    /** Drains if still running. */
    ~QueryService();

    QueryService(const QueryService &) = delete;
    QueryService &operator=(const QueryService &) = delete;

    /**
     * Register a workload under `name` (before start(); the factory
     * must build the identical workload on every call).
     */
    void registerWorkload(const std::string &name,
                          harness::WorkloadFactory make);

    /** Spawn the workers and the watchdog. */
    void start();

    /**
     * Submit a query (never blocks). A request refused by admission
     * control (queue full, or the service is draining/not started)
     * completes immediately with ErrorCode::Overloaded; the returned
     * handle always delivers a result.
     */
    PendingPtr submit(QueryRequest req);

    /** Synchronous convenience: submit and wait. */
    QueryResult query(QueryRequest req);

    /**
     * Graceful shutdown: stop admitting (later submits shed with
     * Overloaded), let queued + in-flight requests finish for up to
     * 60 seconds, cancel whatever is still running (each unwinds at
     * its next checkpoint with a Cancelled result), join the workers,
     * persist any snapshot the store does not hold yet, and stop the
     * watchdog. Idempotent.
     */
    void drain();

    /** @return True between start() and drain(). */
    bool running() const { return running_.load(); }

    /** @return Service accounting so far. */
    ServiceStats stats() const;

    /** @return The shared snapshot registry (thread-safe). */
    harness::SnapshotRegistry &registry() { return registry_; }

  private:
    /** One answer per core::SelectorKind, indexed by its value. */
    using Answers = std::array<QueryAnswer, 5>;

    /**
     * Warm per-(workload, config) state: every selector's answer,
     * read from the pair's snapshot by the first query on the pair
     * and never changed after. The mutex makes that first query
     * single-flight; later ones only copy an answer out.
     */
    struct WarmEntry {
        Mutex mu;
        std::shared_ptr<const Answers> answers SEQ_GUARDED_BY(mu);
    };

    /** Per-worker heartbeat the watchdog reads. */
    struct WorkerState {
        Mutex mu;
        /** Request being served (or null). */
        PendingPtr current SEQ_GUARDED_BY(mu);
        /** CancelToken::now() at dequeue. */
        double busySince SEQ_GUARDED_BY(mu) = 0.0;
        /** Stuck report already issued. */
        bool reported SEQ_GUARDED_BY(mu) = false;
    };

    ServiceConfig config_;
    harness::SnapshotRegistry registry_;
    /** Written before start() only; read-only once workers exist. */
    std::map<std::string, harness::WorkloadFactory> factories;

    BoundedQueue<PendingPtr> queue_;
    /** Serialises start()/drain(); guards the thread handles. */
    Mutex lifecycleMu;
    std::vector<std::thread> workers_ SEQ_GUARDED_BY(lifecycleMu);
    /** Sized in start() before any worker/watchdog thread exists;
     *  the vector itself is read-only while they run (each element's
     *  state is guarded by its own WorkerState::mu). */
    std::vector<std::unique_ptr<WorkerState>> workerStates;
    std::thread watchdog_ SEQ_GUARDED_BY(lifecycleMu);
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};

    /** Watchdog shutdown handshake (CV so drain need not wait out a
     *  poll interval). */
    Mutex watchdogMu;
    CondVar watchdogCv;
    bool stopWatchdog SEQ_GUARDED_BY(watchdogMu) = false;

    /** Admitted-but-unfinished requests, for drain's cancel sweep. */
    Mutex outstandingMu;
    std::set<PendingPtr> outstanding SEQ_GUARDED_BY(outstandingMu);

    /** Warm entries, keyed by the length-prefixed workload name
     *  followed by sim::encodeGpuConfig's byte image of the config
     *  (IEEE bit patterns, name included), compared byte for byte.
     *  Unlike GpuConfig::operator==, a NaN field still finds its own
     *  entry, and -0.0 stays distinct from 0.0, exactly as in the
     *  pair's SnapshotKey.
     *  Lock order: a WarmEntry::mu is taken after entriesMu is
     *  released and may be held across registry-slot acquisition
     *  (entry -> registry slot, never the reverse). */
    Mutex entriesMu;
    std::unordered_map<std::string, std::shared_ptr<WarmEntry>> entries
        SEQ_GUARDED_BY(entriesMu);

    struct AtomicStats {
        std::atomic<uint64_t> admitted{0};
        std::atomic<uint64_t> shedOverload{0};
        std::atomic<uint64_t> completed{0};
        std::atomic<uint64_t> deadlineMissed{0};
        std::atomic<uint64_t> cancelled{0};
        std::atomic<uint64_t> failed{0};
        std::atomic<uint64_t> coldBuilds{0};
        std::atomic<uint64_t> warmHits{0};
        std::atomic<uint64_t> stuckReports{0};
    };
    mutable AtomicStats stats_;

    void workerLoop(unsigned index);
    void watchdogLoop();

    /** Classify-and-publish one finished request. */
    void finish(const PendingPtr &p, QueryResult r);

    /** Every selector's answer on `snap`, indexed by SelectorKind. */
    static Answers answersFrom(const harness::ModelSnapshot &snap);

    /**
     * Answer one query on the calling worker thread (the caller's
     * CancelScope is already installed). Throws CancelledError /
     * RecoverableError / std::exception on the classified paths.
     */
    QueryAnswer answerQuery(const QueryRequest &req, bool &cold_build);
};

} // namespace service
} // namespace seqpoint

#endif // SEQPOINT_SERVICE_QUERY_SERVICE_HH
