/**
 * @file
 * A small fixed-size thread pool with a central task queue (no work
 * stealing) used to parallelise the per-sequence-length profiling
 * sweep. Fan-out is index-based and deterministic: parallelFor(n, fn)
 * invokes fn(0..n-1) exactly once each, so any per-task randomness can
 * be derived from the index (e.g. Rng::fork(index)) and results are
 * bit-identical to a serial loop regardless of scheduling.
 *
 * A process-wide pool (ThreadPool::shared()) exists so hot paths that
 * fan out repeatedly (the scheduler's per-cell profiling sweeps, the
 * service's concurrent cold starts) do not pay thread creation and
 * teardown per call. parallelFor is safe to nest on the shared pool:
 * the calling thread always drains indices itself and the enqueued
 * worker helpers are purely opportunistic, so an inner fan-out on a
 * fully-busy pool degrades to the caller running every index serially
 * instead of deadlocking.
 */

#ifndef SEQPOINT_COMMON_THREAD_POOL_HH
#define SEQPOINT_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace seqpoint {

/** Fixed-size worker pool over one shared FIFO queue. */
class ThreadPool
{
  public:
    /**
     * Construct a pool.
     *
     * @param num_threads Worker count; 0 picks the hardware
     *                    concurrency (at least 1).
     */
    explicit ThreadPool(unsigned num_threads = 0);

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The process-wide pool, created on first use with the hardware
     * concurrency. Callers that fan out repeatedly should use this
     * instead of constructing (and joining) a private pool per sweep.
     */
    static ThreadPool &shared();

    /** @return Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /**
     * Enqueue one task for asynchronous execution.
     *
     * A task that throws never takes the pool down: the exception is
     * captured (the first one wins), the worker stays alive, and the
     * next wait() rethrows it.
     *
     * @param fn Task body.
     */
    void run(std::function<void()> fn) SEQ_EXCLUDES(mu);

    /**
     * Block until every task enqueued so far has finished, then
     * rethrow the first exception any of them raised (clearing it, so
     * the pool is reusable afterwards). Completes the full drain
     * first -- a throwing task never strands its siblings.
     */
    void wait() SEQ_EXCLUDES(mu);

    /**
     * Run fn(0) .. fn(count-1), each exactly once, across the workers
     * and the calling thread; returns when all are done. Tasks must
     * derive any randomness from their index to stay deterministic.
     *
     * The calling thread always participates and can complete the
     * whole range alone; enqueued worker helpers only accelerate the
     * drain. This makes nested parallelFor on the shared pool safe
     * (no wait on queue slots that can never free up). The caller's
     * cancellation context (common/cancel.hh) is re-installed on the
     * helper threads, so cancelCheckpoint() inside fn observes the
     * caller's token no matter which thread runs the index.
     *
     * An index that throws is recorded (first exception wins) and
     * counted finished; draining continues so every index is invoked
     * exactly once, then the recorded exception is rethrown in the
     * caller.
     *
     * @param count Index range size.
     * @param fn Task body, given the task index.
     * @param width Max concurrent participants including the caller
     *              (0 = no cap beyond the pool size). Lets a caller
     *              that holds most of the pool's workers keep a lid
     *              on oversubscription for an inner fan-out.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn,
                     unsigned width = 0);

  private:
    std::vector<std::thread> workers; ///< Immutable after the ctor.
    mutable Mutex mu;
    std::deque<std::function<void()>> queue SEQ_GUARDED_BY(mu);
    CondVar cvTask; ///< Signals workers: task or stop.
    CondVar cvIdle; ///< Signals wait(): all drained.
    /** Tasks currently executing. */
    std::size_t active SEQ_GUARDED_BY(mu) = 0;
    bool stopping SEQ_GUARDED_BY(mu) = false;
    /** First run() task exception. */
    std::exception_ptr firstError SEQ_GUARDED_BY(mu);

    /** @return True when a worker should wake (task ready or stop). */
    bool
    wakeWorkerLocked() const SEQ_REQUIRES(mu)
    {
        return stopping || !queue.empty();
    }

    /** @return True when everything enqueued so far has finished. */
    bool
    idleLocked() const SEQ_REQUIRES(mu)
    {
        return queue.empty() && active == 0;
    }

    void workerLoop() SEQ_EXCLUDES(mu);
};

} // namespace seqpoint

#endif // SEQPOINT_COMMON_THREAD_POOL_HH
