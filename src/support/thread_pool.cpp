#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "support/status.h"

namespace uops {

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    queues_.resize(num_threads);
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_available_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    panicIf(!task, "ThreadPool::submit: empty task");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panicIf(shutdown_, "ThreadPool::submit after shutdown");
        queues_[next_queue_].tasks.push_back(
            PendingTask{next_seq_++, std::move(task)});
        next_queue_ = (next_queue_ + 1) % queues_.size();
        ++in_flight_;
    }
    work_available_.notify_one();
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    if (pending_error_) {
        std::exception_ptr error = pending_error_;
        pending_error_ = nullptr;
        std::rethrow_exception(error);
    }
}

size_t
ThreadPool::droppedErrors() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_errors_;
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &fn)
{
    // One runner per worker claims the next index until none is left,
    // so indices start in ascending order (a task per index would
    // start last-first, see findTask). A fault is recorded under its
    // index, which makes wait() rethrow the lowest failing index's.
    std::atomic<size_t> next{0};
    auto runner = [&](size_t worker) {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i, worker);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                recordError(i, std::current_exception());
            }
        }
    };
    for (size_t r = 0; r < std::min(n, workers_.size()); ++r)
        submit(runner);
    wait();
}

bool
ThreadPool::findTask(size_t worker, PendingTask &out)
{
    // Own deque first: newest task (LIFO) for locality.
    WorkerQueue &own = queues_[worker];
    if (!own.tasks.empty()) {
        out = std::move(own.tasks.back());
        own.tasks.pop_back();
        return true;
    }
    // Steal the oldest task of the first non-empty victim (FIFO).
    for (size_t k = 1; k < queues_.size(); ++k) {
        WorkerQueue &victim = queues_[(worker + k) % queues_.size()];
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::recordError(uint64_t seq, std::exception_ptr error)
{
    // Called with mutex_ held. When several workers fault in one
    // wave, keep the exception of the earliest-*submitted* task (in
    // parallelFor: the lowest index) so wait()'s rethrow does not
    // depend on completion order; the rest are swallowed by design
    // (the alternative — aggregating — would change wait()'s type
    // contract) and only counted.
    if (!pending_error_) {
        pending_error_ = error;
        pending_error_seq_ = seq;
        return;
    }
    ++dropped_errors_;
    if (seq < pending_error_seq_) {
        pending_error_ = error;
        pending_error_seq_ = seq;
    }
}

void
ThreadPool::workerLoop(size_t worker)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        PendingTask task;
        if (findTask(worker, task)) {
            lock.unlock();
            std::exception_ptr error;
            try {
                task.fn(worker);
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            if (error)
                recordError(task.seq, error);
            --in_flight_;
            if (in_flight_ == 0)
                all_done_.notify_all();
            continue;
        }
        if (shutdown_)
            return;
        work_available_.wait(lock);
    }
}

} // namespace uops
