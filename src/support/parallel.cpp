#include "support/parallel.h"

#include <chrono>
#include <cstdlib>
#include <exception>

#include "support/thread_registry.h"

namespace phpf {

namespace {

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

inline std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Spin budget before easing off. Phases arrive every few microseconds
// when the simulator is busy, so a short spin catches the next kick;
// yielding keeps oversubscribed machines (CI containers) live, and the
// condition variable parks workers through long gaps (compile passes,
// report writing). The yield budget is deliberately large: parking on
// the condition variable costs a futex round-trip per phase, which at
// tens of thousands of phases per run dominates everything else —
// workers should reach the cv only when the simulation has actually
// stopped issuing phases.
constexpr int kSpinIters = 2048;
constexpr int kYieldIters = 20000;

}  // namespace

int resolveThreadCount(int requested, int maxUseful) {
    int n = requested;
    if (n <= 0) {
        if (const char* env = std::getenv("PHPF_SIM_THREADS"))
            n = std::atoi(env);
        if (n <= 0) n = hardwareThreads();
    }
    if (maxUseful > 0 && n > maxUseful) n = maxUseful;
    return n < 1 ? 1 : n;
}

int hardwareThreads() {
    const int n = static_cast<int>(std::thread::hardware_concurrency());
    return n > 0 ? n : 1;
}

LockstepPool::LockstepPool(int threads, std::string namePrefix)
    : nThreads_(threads < 1 ? 1 : threads), stats_(static_cast<size_t>(nThreads_)) {
    threads_.reserve(static_cast<size_t>(nThreads_ - 1));
    for (int w = 1; w < nThreads_; ++w)
        threads_.emplace_back([this, w, namePrefix] {
            if (!namePrefix.empty())
                thread_registry::setCurrentName(namePrefix + "-" +
                                                std::to_string(w));
            workerMain(w);
        });
}

LockstepPool::~LockstepPool() {
    stop_.store(true, std::memory_order_release);
    {
        // Taking the mutex pairs with the sleep path's predicate check:
        // a worker is either before wait() (re-checks stop_) or inside
        // it (gets the notify).
        std::lock_guard<std::mutex> lock(mutex_);
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void LockstepPool::execute(int worker) {
    const std::int64_t t0 = nowNs();
    task_(ctx_, worker);
    stats_[static_cast<size_t>(worker)].busyNs.fetch_add(
        nowNs() - t0, std::memory_order_relaxed);
}

void LockstepPool::workerMain(int worker) {
    std::uint64_t seen = 0;
    for (;;) {
        int spins = 0;
        for (;;) {
            const std::uint64_t e = epoch_.load(std::memory_order_acquire);
            if (e != seen) {
                seen = e;
                break;
            }
            if (stop_.load(std::memory_order_acquire)) return;
            ++spins;
            if (spins < kSpinIters) {
                cpuRelax();
            } else if (spins < kSpinIters + kYieldIters) {
                std::this_thread::yield();
            } else {
                std::unique_lock<std::mutex> lock(mutex_);
                sleepers_.fetch_add(1, std::memory_order_relaxed);
                cv_.wait(lock, [&] {
                    return epoch_.load(std::memory_order_acquire) != seen ||
                           stop_.load(std::memory_order_acquire);
                });
                sleepers_.fetch_sub(1, std::memory_order_relaxed);
                spins = 0;
            }
        }
        execute(worker);
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void LockstepPool::run(Task task, void* ctx) {
    task_ = task;
    ctx_ = ctx;
    if (nThreads_ == 1) {
        execute(0);
        return;
    }
    pending_.store(nThreads_ - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    if (sleepers_.load(std::memory_order_acquire) > 0) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
        }
        cv_.notify_all();
    }
    execute(0);
    int spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
        ++spins;
        if (spins < kSpinIters)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

TaskPool::TaskPool(int threads, std::string namePrefix)
    : nThreads_(threads < 1 ? 1 : threads) {
    threads_.reserve(static_cast<size_t>(nThreads_));
    for (int w = 0; w < nThreads_; ++w)
        threads_.emplace_back([this, w, namePrefix] {
            if (!namePrefix.empty())
                thread_registry::setCurrentName(namePrefix + "-" +
                                                std::to_string(w));
            workerMain();
        });
}

TaskPool::~TaskPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void TaskPool::post(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

std::size_t TaskPool::queueDepth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void TaskPool::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [&] {
        return queue_.empty() && active_.load(std::memory_order_relaxed) == 0;
    });
}

void TaskPool::workerMain() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            // Drain the queue even when stopping: destruction promises
            // completion of everything already posted.
            if (queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
            active_.fetch_add(1, std::memory_order_relaxed);
        }
        // An exception escaping into std::thread is std::terminate for
        // the whole process; swallow it here so one bad job costs one
        // result, not the pool.
        std::string error;
        try {
            task();
        } catch (const std::exception& e) {
            error = e.what();
            if (error.empty()) error = "exception with empty message";
        } catch (...) {
            error = "unknown exception";
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error.empty()) {
                failures_.fetch_add(1, std::memory_order_relaxed);
                lastError_ = std::move(error);
            }
            active_.fetch_sub(1, std::memory_order_relaxed);
        }
        idleCv_.notify_all();
    }
}

std::string TaskPool::lastError() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lastError_;
}

std::int64_t LockstepPool::busyNs() const {
    std::int64_t total = 0;
    for (const WorkerStat& s : stats_)
        total += s.busyNs.load(std::memory_order_relaxed);
    return total;
}

}  // namespace phpf
