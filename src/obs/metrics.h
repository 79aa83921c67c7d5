#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>

#include "obs/json.h"

namespace phpf::obs {

/// Monotonically increasing integer metric. Thread-safe: concurrent
/// add() calls never lose increments (the compile service exports
/// hits/misses from every worker thread).
class Counter {
public:
    void add(std::int64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t value() const {
        return v_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> v_{0};
};

/// Streaming summary of an observed distribution: count / sum / min /
/// max plus fixed power-of-two magnitude buckets (bucket i counts
/// samples in [2^(i-1), 2^i); bucket 0 counts samples < 1), with
/// quantile estimation (p50/p90/p99) by linear interpolation inside the
/// covering bucket. Enough to spot latency-vs-bandwidth regime changes
/// and tail blowups without storing samples.
///
/// Thread-safe: every field is an atomic updated with relaxed ordering
/// (min/max/sum via CAS loops). Reads taken while writers are active
/// see a near-point-in-time snapshot — fine for telemetry, not for
/// invariant checks between fields.
class Histogram {
public:
    static constexpr int kBuckets = 64;

    void record(double v) {
        count_.fetch_add(1, std::memory_order_relaxed);
        addToDouble(sum_, v);
        updateMin(v);
        updateMax(v);
        buckets_[static_cast<size_t>(bucketOf(v))].fetch_add(
            1, std::memory_order_relaxed);
    }

    /// The bucket index `v` lands in.
    [[nodiscard]] static int bucketOf(double v) {
        int b = 0;
        while (b < kBuckets - 1 && v >= static_cast<double>(std::int64_t{1} << b))
            ++b;
        return b;
    }

    [[nodiscard]] std::int64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double min() const {
        return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double max() const {
        return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double mean() const {
        const std::int64_t c = count();
        return c == 0 ? 0.0 : sum() / static_cast<double>(c);
    }
    [[nodiscard]] std::int64_t bucket(int i) const {
        return (i < 0 || i >= kBuckets)
                   ? 0
                   : buckets_[static_cast<size_t>(i)].load(
                         std::memory_order_relaxed);
    }

    /// Estimate the q-quantile (q in [0, 1]) of the recorded samples:
    /// find the bucket holding the target rank, interpolate linearly
    /// inside it, and clamp the bucket's bounds to the observed
    /// min/max. Exact for distributions uniform within each bucket;
    /// always within one power-of-two bucket of the true value.
    [[nodiscard]] double quantile(double q) const;

    [[nodiscard]] double p50() const { return quantile(0.50); }
    [[nodiscard]] double p90() const { return quantile(0.90); }
    [[nodiscard]] double p99() const { return quantile(0.99); }

private:
    static void addToDouble(std::atomic<double>& a, double d) {
        double cur = a.load(std::memory_order_relaxed);
        while (!a.compare_exchange_weak(cur, cur + d,
                                        std::memory_order_relaxed)) {
        }
    }
    void updateMin(double v) {
        double cur = min_.load(std::memory_order_relaxed);
        while (v < cur &&
               !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    void updateMax(double v) {
        double cur = max_.load(std::memory_order_relaxed);
        while (v > cur &&
               !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
    std::atomic<std::int64_t> buckets_[kBuckets] = {};
};

/// Named metrics of one owner (the compile service records into one).
/// Lookup lazily creates; names use dotted paths ("service.compile_us").
/// std::map keeps export order deterministic.
///
/// Thread-safe: a mutex guards map *structure* (lazy creation and
/// iteration); the metric objects themselves are atomic, so the common
/// pattern — resolve a reference once, update it from many threads —
/// never takes the lock on the hot path. References returned by
/// counter()/histogram() stay valid for the registry's lifetime
/// (std::map nodes are stable).
class MetricRegistry {
public:
    Counter& counter(const std::string& name) {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_[name];
    }
    Histogram& histogram(const std::string& name) {
        std::lock_guard<std::mutex> lock(mu_);
        return histograms_[name];
    }

    /// Value of a counter without creating it (0 when absent).
    [[nodiscard]] std::int64_t counterValue(const std::string& name) const {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    /// {"counters": {...}, "histograms": {...}}; empty
    /// sections are omitted. Histograms carry count/sum/min/max/mean,
    /// the log2 buckets, and p50/p90/p99 estimates.
    [[nodiscard]] Json toJson() const;

private:
    mutable std::mutex mu_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

}  // namespace phpf::obs
