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

}  // namespace phpf::obs
