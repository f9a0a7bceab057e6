/**
 * @file
 * ThreadPool implementation.
 */

#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/cancel.hh"

namespace seqpoint {

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mu);
        stopping = true;
    }
    cvTask.notify_all();
    for (std::thread &t : workers)
        t.join();
}

ThreadPool &
ThreadPool::shared()
{
    // Intentionally leaked: a destructor run at exit would join the
    // worker threads, and a forked child (death tests, a crashing
    // fatal() path after fork) inherits the pool object but not its
    // threads -- the join would hang forever on phantom thread ids.
    // Process exit reclaims the workers either way.
    static ThreadPool *pool = new ThreadPool();
    return *pool;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mu);
            while (!wakeWorkerLocked())
                cvTask.wait(mu);
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
            ++active;
        }
        // A throwing task must neither kill the worker (std::terminate
        // on an escaped exception) nor leak `active` (which would
        // deadlock every later wait()): capture the exception, finish
        // the bookkeeping, and let wait() rethrow the first one.
        std::exception_ptr err;
        try {
            task();
        } catch (...) {
            err = std::current_exception();
        }
        {
            MutexLock lock(mu);
            --active;
            if (err && !firstError)
                firstError = err;
            if (idleLocked())
                cvIdle.notify_all();
        }
    }
}

void
ThreadPool::run(std::function<void()> fn)
{
    {
        MutexLock lock(mu);
        queue.push_back(std::move(fn));
    }
    cvTask.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr err;
    {
        MutexLock lock(mu);
        while (!idleLocked())
            cvIdle.wait(mu);
        err = std::exchange(firstError, nullptr);
    }
    if (err)
        std::rethrow_exception(err);
}

namespace {

/**
 * Everything a parallelFor fan-out shares between the caller and the
 * enqueued helpers, owned by shared_ptr so a helper that only gets
 * scheduled after the caller already finished the range (possible on
 * a busy shared pool) touches live memory and no-ops instead of
 * dereferencing the caller's dead stack frame.
 */
struct ForState
{
    std::size_t count;
    std::function<void(std::size_t)> fn;
    const CancelToken *token; ///< Caller's cancel context to re-install.
    std::atomic<std::size_t> next{0};     ///< Next unclaimed index.
    Mutex mu;
    CondVar done;
    /** Indices fully executed. */
    std::size_t finished SEQ_GUARDED_BY(mu) = 0;
    std::exception_ptr firstErr SEQ_GUARDED_BY(mu);

    /**
     * Claim-and-run loop, shared by the caller and the helpers. A
     * throwing index is recorded (first wins) and still counted
     * finished so draining continues: the caller alone can always
     * complete the range even when no helper ever runs.
     */
    void
    drain() SEQ_EXCLUDES(mu)
    {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            std::exception_ptr err;
            try {
                fn(i);
            } catch (...) {
                err = std::current_exception();
            }
            MutexLock lock(mu);
            if (err && !firstErr)
                firstErr = err;
            if (++finished == count)
                done.notify_all();
        }
    }
};

} // anonymous namespace

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn,
                        unsigned width)
{
    if (count == 0)
        return;
    if (count == 1 || size() == 0 || width == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    auto state = std::make_shared<ForState>();
    state->count = count;
    state->fn = fn;
    state->token = currentCancelToken();

    // Helpers are opportunistic: completion is "every index finished",
    // not "every helper ran", so the caller never waits on queue slots
    // that a saturated pool (e.g. a nested fan-out) can't free up. Any
    // helper that runs late finds next >= count and returns without
    // touching fn.
    std::size_t helpers = std::min<std::size_t>(size(), count - 1);
    if (width > 1)
        helpers = std::min<std::size_t>(helpers, width - 1);
    for (std::size_t j = 0; j < helpers; ++j) {
        run([state] {
            CancelScope scope(state->token);
            state->drain();
        });
    }

    state->drain();

    std::exception_ptr err;
    {
        MutexLock lock(state->mu);
        while (state->finished != count)
            state->done.wait(state->mu);
        err = std::exchange(state->firstErr, nullptr);
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace seqpoint
