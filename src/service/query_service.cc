/**
 * @file
 * Query-service implementation.
 */

#include "service/query_service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/bytestream.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/snapshot_io.hh"
#include "sim/gpu_config.hh"

namespace seqpoint {
namespace service {

PendingQuery::PendingQuery(QueryRequest r)
    : req(std::move(r)), submitSec(CancelToken::now())
{
    if (std::isfinite(req.deadlineSec))
        token_.armAfter(req.deadlineSec);
}

bool
PendingQuery::done() const
{
    MutexLock lock(mu);
    return done_;
}

QueryResult
PendingQuery::wait()
{
    MutexLock lock(mu);
    while (!done_)
        cv.wait(mu);
    return result;
}

void
PendingQuery::complete(QueryResult r)
{
    {
        MutexLock lock(mu);
        panic_if(done_, "PendingQuery: completed twice");
        result = std::move(r);
        result.latencySec = CancelToken::now() - submitSec;
        done_ = true;
    }
    cv.notify_all();
}

QueryService::QueryService(ServiceConfig cfg)
    : config_(cfg), registry_(cfg.storeDir),
      queue_(cfg.queueCapacity ? cfg.queueCapacity : 1)
{
    fatal_if(config_.workers == 0, "QueryService: zero workers");
}

QueryService::~QueryService()
{
    if (running_.load())
        drain(config_.drainTimeoutSec);
}

void
QueryService::registerWorkload(const std::string &name,
                               harness::WorkloadFactory make)
{
    panic_if(running_.load(),
             "QueryService: registerWorkload('%s') after start()",
             name.c_str());
    panic_if(!make, "QueryService: null factory for '%s'", name.c_str());
    factories[name] = std::move(make);
}

void
QueryService::start()
{
    MutexLock lock(lifecycleMu);
    panic_if(running_.load(), "QueryService: start() twice");
    panic_if(factories.empty(),
             "QueryService: start() with no registered workloads");

    workerStates.clear();
    for (unsigned i = 0; i < config_.workers; ++i)
        workerStates.push_back(std::make_unique<WorkerState>());

    running_.store(true);
    draining_.store(false);
    {
        MutexLock wd_lock(watchdogMu);
        stopWatchdog = false;
    }
    workers_.reserve(config_.workers);
    for (unsigned i = 0; i < config_.workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    watchdog_ = std::thread([this] { watchdogLoop(); });
}

PendingPtr
QueryService::submit(QueryRequest req)
{
    auto p = std::make_shared<PendingQuery>(std::move(req));

    // Admission control: refuse instead of queueing unboundedly. The
    // refusal is immediate and classified, so a client under overload
    // learns to back off instead of timing out in the dark.
    const char *refusal = nullptr;
    if (!running_.load())
        refusal = "service not running";
    else if (draining_.load())
        refusal = "service draining";

    if (!refusal) {
        {
            MutexLock lock(outstandingMu);
            outstanding.insert(p);
        }
        if (queue_.tryPush(p)) {
            stats_.admitted.fetch_add(1, std::memory_order_relaxed);
            return p;
        }
        {
            MutexLock lock(outstandingMu);
            outstanding.erase(p);
        }
        refusal = "queue full";
    }

    stats_.shedOverload.fetch_add(1, std::memory_order_relaxed);
    QueryResult shed;
    shed.status = Status::error(
        ErrorCode::Overloaded,
        csprintf("%s: shed '%s'", refusal, p->request().workload.c_str()));
    p->complete(std::move(shed));
    return p;
}

QueryResult
QueryService::query(QueryRequest req)
{
    return submit(std::move(req))->wait();
}

QueryAnswer
QueryService::answerQuery(const QueryRequest &req, bool &cold_build)
{
    auto fit = factories.find(req.workload);
    if (fit == factories.end()) {
        throw RecoverableError(Status::error(
            ErrorCode::CellFailed,
            csprintf("unknown workload '%s'", req.workload.c_str())));
    }
    const harness::WorkloadFactory &make = fit->second;

    // The length prefix keeps the key prefix-free: no two
    // (workload, config) pairs encode to the same bytes.
    ByteWriter entry_key;
    entry_key.str(req.workload);
    sim::encodeGpuConfig(entry_key, req.config);
    std::shared_ptr<WarmEntry> entry;
    {
        MutexLock lock(entriesMu);
        std::shared_ptr<WarmEntry> &slot = entries[entry_key.data()];
        if (!slot)
            slot = std::make_shared<WarmEntry>();
        entry = slot;
    }

    // Same-pair requests serialise on the entry (the second of two
    // concurrent identical queries piggybacks here and finds warm
    // state); different pairs proceed independently. Lock order is
    // entry -> registry slot, never the reverse.
    MutexLock entry_lock(entry->mu);
    cancelCheckpoint("service.entry");

    if (!entry->exp) {
        // Cold for this process: stand up the warm Experiment, whose
        // workload also names the snapshot, then acquire that
        // snapshot (single-flight in the registry; disk hit, or a
        // build whose inner loops observe this request's cancel
        // token) and seed from it. A build runs on its own Experiment
        // that is then dropped: a seeded Experiment holds far less
        // live memory than a cold-built one. A thrown cancellation
        // leaves both the registry slot and this entry unset and
        // reusable.
        auto exp = std::make_unique<harness::Experiment>(make());
        exp->setProfileThreads(std::max(1u, config_.profileThreads));
        harness::SnapshotKey key = harness::snapshotKeyFor(
            exp->workload(), exp->options(), req.config);
        bool built = false;
        auto snap = registry_.acquire(key, [&] {
            built = true;
            harness::Experiment cold(make());
            cold.setProfileThreads(
                std::max(1u, config_.profileThreads));
            return cold.snapshot(req.config);
        });
        cold_build = built;

        exp->seedFrom(snap);
        entry->exp = std::move(exp);
    }

    cancelCheckpoint("service.answer");
    harness::Experiment &exp = *entry->exp;
    QueryAnswer ans;
    ans.selection = exp.buildSelection(req.selector, req.config);
    ans.projectedSec =
        exp.projectedTrainSec(ans.selection, req.config);
    ans.actualSec = exp.actualTrainSec(req.config);
    ans.errorPct = ans.actualSec > 0.0
        ? std::abs(ans.projectedSec - ans.actualSec) / ans.actualSec *
            100.0
        : 0.0;
    return ans;
}

void
QueryService::finish(const PendingPtr &p, QueryResult r)
{
    if (r.status.ok()) {
        stats_.completed.fetch_add(1, std::memory_order_relaxed);
        if (r.coldBuild)
            stats_.coldBuilds.fetch_add(1, std::memory_order_relaxed);
        else
            stats_.warmHits.fetch_add(1, std::memory_order_relaxed);
    } else if (r.status.code() == ErrorCode::Timeout) {
        stats_.deadlineMissed.fetch_add(1, std::memory_order_relaxed);
    } else if (r.status.code() == ErrorCode::Cancelled) {
        stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
    } else {
        stats_.failed.fetch_add(1, std::memory_order_relaxed);
    }
    {
        MutexLock lock(outstandingMu);
        outstanding.erase(p);
    }
    p->complete(std::move(r));
}

void
QueryService::workerLoop(unsigned index)
{
    WorkerState &ws = *workerStates[index];
    while (auto item = queue_.pop()) {
        PendingPtr p = std::move(*item);
        {
            MutexLock lock(ws.mu);
            ws.current = p;
            ws.busySince = CancelToken::now();
            ws.reported = false;
        }

        CancelScope scope(&p->token());
        QueryResult r;
        try {
            // A request whose deadline expired while queued is shed
            // here, before any expensive work.
            p->token().checkpoint("service.dequeue");
            r.answer = answerQuery(p->request(), r.coldBuild);
        } catch (const CancelledError &e) {
            r.status = e.status(); // Timeout or Cancelled, classified
        } catch (const RecoverableError &e) {
            r.status = e.status();
        } catch (const std::exception &e) {
            // Catch-all containment: an unexpected failure answers
            // this request with a classified error; it never takes
            // down the worker (or the service). Invariant violations
            // (panic/fatal) still abort, as they must.
            r.status = Status::error(ErrorCode::CellFailed, e.what());
        }

        {
            MutexLock lock(ws.mu);
            ws.current = nullptr;
        }
        finish(p, std::move(r));
    }
}

void
QueryService::watchdogLoop()
{
    for (;;) {
        {
            MutexLock lock(watchdogMu);
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        std::max(0.01, config_.watchdogPollSec)));
            while (!stopWatchdog) {
                if (watchdogCv.waitUntil(watchdogMu, deadline) ==
                    std::cv_status::timeout)
                    break;
            }
            if (stopWatchdog)
                return;
        }
        double now = CancelToken::now();
        for (std::size_t i = 0; i < workerStates.size(); ++i) {
            WorkerState &ws = *workerStates[i];
            MutexLock lock(ws.mu);
            if (!ws.current || ws.reported)
                continue;
            double busy = now - ws.busySince;
            if (busy < config_.watchdogStuckSec)
                continue;
            ws.reported = true;
            stats_.stuckReports.fetch_add(1, std::memory_order_relaxed);
            warn("QueryService: worker %zu stuck %.1fs on workload "
                 "'%s' (config '%s')",
                 i, busy, ws.current->request().workload.c_str(),
                 ws.current->request().config.name.c_str());
        }
    }
}

void
QueryService::drain(double timeout_sec)
{
    MutexLock lock(lifecycleMu);
    if (!running_.load())
        return;

    // Phase 1: stop admitting. Every later submit sheds Overloaded;
    // the queue refuses pushes but keeps serving what it holds.
    draining_.store(true);
    queue_.close();

    // Phase 2: the polite window -- queued and in-flight requests may
    // finish on their own until the budget runs out.
    double deadline = CancelToken::now() + std::max(0.0, timeout_sec);
    for (;;) {
        {
            MutexLock out_lock(outstandingMu);
            if (outstanding.empty())
                break;
        }
        if (CancelToken::now() >= deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // Phase 3: cancel the stragglers. Each unwinds at its next
    // checkpoint and answers Cancelled; the workers then observe the
    // closed, drained queue and exit.
    {
        MutexLock out_lock(outstandingMu);
        for (const PendingPtr &p : outstanding)
            p->cancel();
    }
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();

    {
        MutexLock wd_lock(watchdogMu);
        stopWatchdog = true;
    }
    watchdogCv.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();

    // Phase 4: persist what the store missed (e.g. a save that a
    // fault storm dropped at build time).
    std::size_t flushed = registry_.flushToStore();
    if (flushed) {
        warn("QueryService: drain persisted %zu snapshot(s) the "
             "store was missing", flushed);
    }
    running_.store(false);
}

ServiceStats
QueryService::stats() const
{
    ServiceStats out;
    out.admitted = stats_.admitted.load(std::memory_order_relaxed);
    out.shedOverload =
        stats_.shedOverload.load(std::memory_order_relaxed);
    out.completed = stats_.completed.load(std::memory_order_relaxed);
    out.deadlineMissed =
        stats_.deadlineMissed.load(std::memory_order_relaxed);
    out.cancelled = stats_.cancelled.load(std::memory_order_relaxed);
    out.failed = stats_.failed.load(std::memory_order_relaxed);
    out.coldBuilds = stats_.coldBuilds.load(std::memory_order_relaxed);
    out.warmHits = stats_.warmHits.load(std::memory_order_relaxed);
    out.stuckReports =
        stats_.stuckReports.load(std::memory_order_relaxed);
    return out;
}

} // namespace service
} // namespace seqpoint
