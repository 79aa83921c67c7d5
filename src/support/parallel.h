#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace phpf {

/// `std::thread::hardware_concurrency()`, or 1 when it is unknown.
int hardwareThreads();

/// A queue-fed pool of persistent workers for independent heterogeneous
/// jobs: each queued task goes to ONE free worker, with no ordering
/// between tasks. Built for the compile service: jobs are milliseconds
/// long, so a plain mutex + condition variable queue is nowhere near
/// the bottleneck.
///
/// A task that throws does not kill its worker (an escaped exception
/// from a std::thread is std::terminate): the pool swallows it, records
/// it in failures()/lastError(), and the worker moves on to the next
/// task. Callers that need the error itself should catch inside the
/// task (the service wraps every job in its own handler); the pool's
/// counter is the backstop that keeps one bad job from taking down the
/// other workers' lanes.
class TaskPool {
public:
    /// `threads` workers are spawned eagerly; values < 1 are treated
    /// as 1. The caller does NOT participate.
    explicit TaskPool(int threads);
    /// Finishes every queued task, then joins the workers.
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    [[nodiscard]] int threads() const { return nThreads_; }

    /// Enqueue a task; runs on some worker as soon as one is free.
    void post(std::function<void()> task);

    /// Tasks queued but not yet picked up by a worker.
    [[nodiscard]] std::size_t queueDepth() const;
    /// Tasks currently executing on a worker.
    [[nodiscard]] int active() const {
        return active_.load(std::memory_order_relaxed);
    }
    /// Block until the queue is empty and no task is executing.
    void drain();

    /// Tasks that escaped with an exception (and were swallowed to keep
    /// the worker alive).
    [[nodiscard]] std::int64_t failures() const {
        return failures_.load(std::memory_order_relaxed);
    }
    /// what() of the most recent escaped exception ("unknown exception"
    /// for non-std throws); empty when failures() == 0.
    [[nodiscard]] std::string lastError() const;

private:
    void workerMain();

    int nThreads_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;       ///< workers wait for tasks
    std::condition_variable idleCv_;   ///< drain() waits for quiescence
    std::deque<std::function<void()>> queue_;
    std::atomic<int> active_{0};
    std::atomic<std::int64_t> failures_{0};
    std::string lastError_;  ///< guarded by mutex_
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

}  // namespace phpf
