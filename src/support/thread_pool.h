/**
 * @file
 * A small work-stealing thread pool.
 *
 * Built for the batch characterization engine (core/batch.h): full-ISA
 * sweeps are embarrassingly parallel per (instruction variant, uarch)
 * task, but task costs vary by orders of magnitude (a NOP vs. a divider
 * chain), so static partitioning leaves workers idle. Each worker owns
 * a deque; it pops from the back of its own deque (LIFO, cache-warm)
 * and steals from the front of a victim's deque (FIFO, oldest first).
 * So submitted tasks do not start in submission order; parallelFor,
 * which the sweep uses, does start its indices in ascending order.
 *
 * Stealing here is a *scheduling policy*, not a lock-free structure:
 * all deques are guarded by one pool mutex. Tasks in this codebase
 * run for milliseconds (a full simulator measurement), so a ~100 ns
 * critical section per dequeue is irrelevant at the pool sizes the
 * sweep uses; do not add per-queue locks or atomics without a
 * workload that shows contention.
 *
 * Tasks receive the index of the executing worker, which lets callers
 * keep per-worker state (e.g. one simulator pipeline per worker)
 * without locking.
 */

#ifndef UOPS_SUPPORT_THREAD_POOL_H
#define UOPS_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace uops {

class ThreadPool
{
  public:
    /** A unit of work; receives the executing worker's index. */
    using Task = std::function<void(size_t worker)>;

    /**
     * Start @p num_threads workers (0: one per hardware thread,
     * at least 1).
     */
    explicit ThreadPool(size_t num_threads = 0);

    /** Waits for all submitted work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t numWorkers() const { return workers_.size(); }

    /**
     * Enqueue a task. Distributed round-robin over the worker deques;
     * idle workers steal, so placement only affects locality. Start
     * order is not submission order: a worker runs its own newest
     * task first.
     */
    void submit(Task task);

    /**
     * Block until every submitted task has finished. If any tasks
     * threw, the exception of the *earliest-submitted* faulting task
     * is rethrown here (the remaining tasks still run to completion
     * first). The choice is deterministic — it depends on submission
     * order, never on which worker reported its fault first. Any
     * further exceptions from the same wave are intentionally
     * swallowed; droppedErrors() counts them.
     */
    void wait();

    /**
     * Total task exceptions intentionally swallowed so far because a
     * lower-submission-order exception took precedence in wait().
     */
    size_t droppedErrors() const;

    /**
     * Run fn(i, worker) for every i in [0, n), spread over the pool,
     * and wait for completion. Indices start in ascending order: one
     * runner per worker claims the lowest index not yet claimed, so
     * index i starts no later than index i + 1. If calls throw, the lowest
     * failing index's exception is rethrown once all have run, and
     * the rest are counted in droppedErrors(). Must not be called
     * concurrently with other submissions.
     */
    void parallelFor(size_t n, const std::function<void(size_t i, size_t worker)> &fn);

  private:
    /** A queued task, tagged with its submission sequence number so
     *  error reporting is deterministic under any scheduling. */
    struct PendingTask
    {
        uint64_t seq = 0;
        Task fn;
    };

    struct WorkerQueue
    {
        std::deque<PendingTask> tasks;
    };

    void workerLoop(size_t worker);

    /** Pop from our own deque's back or steal from a victim's front. */
    bool findTask(size_t worker, PendingTask &out);

    /** Record a task fault; keeps the earliest-submitted exception. */
    void recordError(uint64_t seq, std::exception_ptr error);

    /** wait() without rethrowing (used by the destructor). */
    void drain();

    std::vector<WorkerQueue> queues_;
    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_done_;
    size_t next_queue_ = 0;    ///< round-robin submission cursor
    size_t in_flight_ = 0;     ///< queued + executing tasks
    bool shutdown_ = false;
    uint64_t next_seq_ = 0;    ///< submission sequence counter

    /** Exception of the earliest-submitted faulting task this wave. */
    std::exception_ptr pending_error_;
    uint64_t pending_error_seq_ = 0;
    size_t dropped_errors_ = 0; ///< intentionally swallowed exceptions
};

} // namespace uops

#endif // UOPS_SUPPORT_THREAD_POOL_H
