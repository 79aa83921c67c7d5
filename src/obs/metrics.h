#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace phpf::obs {

/// Streaming summary of an observed distribution: count / sum / min /
/// max plus fixed power-of-two magnitude buckets (bucket i counts
/// samples in [2^(i-1), 2^i); bucket 0 counts samples < 1), with
/// quantile estimation (p50/p90/p99) by linear interpolation inside the
/// covering bucket. Enough to spot latency-vs-bandwidth regime changes
/// and tail blowups without storing samples.
///
/// Single-writer: the profiler and the calibration each fill one
/// function-local histogram.
class Histogram {
public:
    static constexpr int kBuckets = 64;

    void record(double v) {
        ++count_;
        sum_ += v;
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
        ++buckets_[static_cast<std::size_t>(bucketOf(v))];
    }

    /// The bucket index `v` lands in.
    [[nodiscard]] static int bucketOf(double v) {
        int b = 0;
        while (b < kBuckets - 1 && v >= static_cast<double>(std::int64_t{1} << b))
            ++b;
        return b;
    }

    [[nodiscard]] std::int64_t count() const { return count_; }
    [[nodiscard]] double sum() const { return sum_; }
    [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
    [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
    [[nodiscard]] double mean() const {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }
    [[nodiscard]] std::int64_t bucket(int i) const {
        return (i < 0 || i >= kBuckets) ? 0
                                        : buckets_[static_cast<std::size_t>(i)];
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
    std::int64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::array<std::int64_t, kBuckets> buckets_{};
};

}  // namespace phpf::obs
