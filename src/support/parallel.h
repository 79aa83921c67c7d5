#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace phpf {

/// Resolve a requested worker count for data-parallel execution.
///
/// `requested > 0` is taken as-is; `requested <= 0` means "auto": the
/// PHPF_SIM_THREADS environment variable when set, otherwise
/// `std::thread::hardware_concurrency()`. The result is clamped to
/// [1, maxUseful] (pass maxUseful <= 0 for no upper clamp) — there is
/// never a point in more lockstep workers than units of per-phase work.
int resolveThreadCount(int requested, int maxUseful = 0);

/// `std::thread::hardware_concurrency()`, or 1 when it is unknown.
int hardwareThreads();

/// A pool of persistent workers executing short lockstep phases.
///
/// The pool is built for the SPMD simulator's execution model: one
/// *phase* per statement instance, a barrier between phases, and phases
/// that are only a few microseconds long. `run()` hands the same task to
/// every worker (the caller participates as worker 0) and returns when
/// all of them have finished — that return IS the barrier. Dispatch is
/// an atomic epoch increment and completion a counting spin, so a kick
/// costs hundreds of nanoseconds, not a mutex round-trip; workers fall
/// back to yield and finally to a condition variable when phases stop
/// arriving, so an idle pool burns no CPU.
///
/// Tasks are raw function pointers plus a context pointer: dispatching a
/// phase never allocates.
class LockstepPool {
public:
    using Task = void (*)(void* ctx, int worker);

    /// `threads` is the total worker count including the calling thread;
    /// values < 1 are treated as 1 (no threads spawned, run() degrades
    /// to a plain call). When `namePrefix` is non-empty, spawned worker
    /// w registers itself as "<namePrefix>-<w>" in the process thread
    /// registry so telemetry (Chrome trace rows, flight-recorder
    /// events) shows named threads instead of bare tids. Worker 0 is
    /// the caller and keeps its own name.
    explicit LockstepPool(int threads, std::string namePrefix = "");
    ~LockstepPool();

    LockstepPool(const LockstepPool&) = delete;
    LockstepPool& operator=(const LockstepPool&) = delete;

    [[nodiscard]] int threads() const { return nThreads_; }

    /// Execute `task(ctx, w)` for every worker w in [0, threads());
    /// returns after all calls complete. The caller runs worker 0. Not
    /// reentrant; tasks must not call run() on the same pool.
    void run(Task task, void* ctx);

    /// Convenience adapter for callables (no allocation: the callable
    /// lives at the call site).
    template <typename F>
    void runOn(F& f) {
        run([](void* c, int w) { (*static_cast<F*>(c))(w); }, &f);
    }

    /// Aggregate nanoseconds workers (caller included) spent inside
    /// tasks since construction. busy / wall bounds the achievable
    /// speedup from above.
    [[nodiscard]] std::int64_t busyNs() const;

    /// Static contiguous partition of [0, n) for worker w of t.
    static std::pair<std::int64_t, std::int64_t> chunkOf(std::int64_t n,
                                                         int w, int t) {
        return {n * w / t, n * (w + 1) / t};
    }

private:
    void workerMain(int worker);
    void execute(int worker);

    // One cache line per worker: the busy counters are written on every
    // phase by different threads.
    struct alignas(64) WorkerStat {
        std::atomic<std::int64_t> busyNs{0};
    };

    int nThreads_;
    Task task_ = nullptr;
    void* ctx_ = nullptr;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<int> pending_{0};
    std::atomic<bool> stop_{false};
    std::atomic<int> sleepers_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<WorkerStat> stats_;
    std::vector<std::thread> threads_;
};

/// A queue-fed pool of persistent workers for independent heterogeneous
/// jobs — the complement of LockstepPool: where LockstepPool hands ONE
/// task to EVERY worker with a barrier (simulator phases), TaskPool
/// hands EACH queued task to ONE free worker with no ordering between
/// tasks. Built for the compile service: jobs are milliseconds long, so
/// a plain mutex + condition variable queue is nowhere near the
/// bottleneck.
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
    /// as 1. Unlike LockstepPool the caller does NOT participate.
    /// When `namePrefix` is non-empty, worker w registers itself as
    /// "<namePrefix>-<w>" in the process thread registry.
    explicit TaskPool(int threads, std::string namePrefix = "");
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

/// Run `body(begin, end, worker)` over a static contiguous partition of
/// [0, n). With a null pool (or a single-worker pool) the whole range
/// runs inline on the caller.
template <typename Body>
void parallelFor(LockstepPool* pool, std::int64_t n, Body&& body) {
    if (pool == nullptr || pool->threads() <= 1 || n <= 1) {
        if (n > 0) body(std::int64_t{0}, n, 0);
        return;
    }
    const int t = pool->threads();
    auto task = [&](int w) {
        const auto [b, e] = LockstepPool::chunkOf(n, w, t);
        if (b < e) body(b, e, w);
    };
    pool->runOn(task);
}

}  // namespace phpf
