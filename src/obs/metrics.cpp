#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace phpf::obs {

double Histogram::quantile(double q) const {
    const std::int64_t n = count();
    if (n <= 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double lo = min();
    const double hi = max();
    if (n == 1 || lo >= hi) return hi;
    // Target rank in [1, n]; walk the cumulative bucket counts to the
    // bucket containing it.
    const double rank = q * static_cast<double>(n - 1) + 1.0;
    std::int64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const std::int64_t inBucket = bucket(b);
        if (inBucket == 0) continue;
        if (static_cast<double>(cum + inBucket) < rank) {
            cum += inBucket;
            continue;
        }
        // Bucket bounds, clamped to the observed range so a sparse top
        // bucket does not inflate the estimate to its power-of-two
        // upper edge.
        double bLo = b == 0 ? 0.0
                            : static_cast<double>(std::int64_t{1} << (b - 1));
        double bHi = static_cast<double>(std::int64_t{1} << b);
        bLo = std::max(bLo, lo);
        bHi = std::min(bHi, hi);
        if (bHi <= bLo) return bHi;
        const double frac =
            (rank - static_cast<double>(cum)) / static_cast<double>(inBucket);
        return bLo + frac * (bHi - bLo);
    }
    return hi;
}

Json MetricRegistry::toJson() const {
    Json out = Json::object();
    std::lock_guard<std::mutex> lock(mu_);
    if (!counters_.empty()) {
        Json c = Json::object();
        for (const auto& [name, m] : counters_) c.set(name, m.value());
        out.set("counters", std::move(c));
    }
    if (!histograms_.empty()) {
        Json h = Json::object();
        for (const auto& [name, m] : histograms_) {
            Json one = Json::object();
            one.set("count", m.count());
            one.set("sum", m.sum());
            one.set("min", m.min());
            one.set("max", m.max());
            one.set("mean", m.mean());
            one.set("p50", m.p50());
            one.set("p90", m.p90());
            one.set("p99", m.p99());
            Json buckets = Json::array();
            // Trailing empty buckets are dropped; bucket i covers
            // [2^(i-1), 2^i).
            int last = Histogram::kBuckets - 1;
            while (last >= 0 && m.bucket(last) == 0) --last;
            for (int i = 0; i <= last; ++i) buckets.push(m.bucket(i));
            one.set("log2_buckets", std::move(buckets));
            h.set(name, std::move(one));
        }
        out.set("histograms", std::move(h));
    }
    return out;
}

}  // namespace phpf::obs
