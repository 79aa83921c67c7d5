#pragma once

#include <cmath>
#include <cstdint>

namespace phpf {

/// Linear (latency + bandwidth) communication cost model calibrated to
/// an IBM SP2 thin node with the MPL/MPI user-space library, the
/// machine of the paper's evaluation:
///   - message latency ~ 40 µs
///   - point-to-point bandwidth ~ 35 MB/s
///   - ~ 266 MFLOPS peak, of which stencil codes sustain a fraction
/// Collectives use log2(P) stages. Absolute times are not expected to
/// match the 1997 hardware exactly; the model preserves the *ratios*
/// the paper's tables exhibit (latency-bound inner-loop messages vs.
/// vectorized bulk transfers).
struct CostModel {
    double alphaSec = 40e-6;            ///< per-message latency (s)
    double betaSecPerByte = 1.0 / 35e6; ///< inverse bandwidth (s/B)
    double flopSec = 1.0 / 50e6;        ///< sustained per-flop time (s)
    int elemBytes = 8;                  ///< REAL is double precision
    /// Global message combining across loop nests — the optimization the
    /// paper observes phpf lacks ("there is considerable scope for
    /// improving the performance of that version by global message
    /// combining across loop nests"). When on, messages of the same
    /// pattern placed at the same point share one latency term.
    bool combineMessages = false;

    [[nodiscard]] double message(double bytes) const {
        return alphaSec + bytes * betaSecPerByte;
    }
    /// Neighbour shift exchange: one message each way per processor pair,
    /// modelled as a single message of the boundary volume.
    [[nodiscard]] double shift(double bytes) const { return message(bytes); }
    /// Stages of a collective over `procs` coordinates: ceil(log2 P).
    [[nodiscard]] static double stagesFor(int procs) {
        return std::ceil(std::log2(static_cast<double>(procs)));
    }
    /// Broadcast of `bytes` along a dimension of `procs` coordinates.
    [[nodiscard]] double broadcast(int procs, double bytes) const {
        if (procs <= 1) return 0.0;
        return broadcastIn(stagesFor(procs), bytes);
    }
    /// broadcast() over P > 1 coordinates, given stagesFor(P): callers
    /// that price one pattern many times hoist the stage count.
    [[nodiscard]] double broadcastIn(double stages, double bytes) const {
        return stages * message(bytes);
    }
    /// All partitions to every coordinate (total volume `totalBytes`).
    [[nodiscard]] double allGather(int procs, double totalBytes) const {
        if (procs <= 1) return 0.0;
        return allGatherIn(stagesFor(procs), totalBytes);
    }
    /// allGather() over P > 1 coordinates, given stagesFor(P).
    [[nodiscard]] double allGatherIn(double stages, double totalBytes) const {
        return stages * alphaSec + totalBytes * betaSecPerByte;
    }
    /// All partitions to a single coordinate.
    [[nodiscard]] double gather(int procs, double totalBytes) const {
        return allGather(procs, totalBytes);
    }
    [[nodiscard]] double pointToPoint(double bytes) const {
        return message(bytes);
    }
    /// Combining reduction of `bytes` across `procs` coordinates.
    [[nodiscard]] double reduce(int procs, double bytes) const {
        return broadcast(procs, bytes);
    }
    [[nodiscard]] double compute(double flops) const { return flops * flopSec; }
};

/// Shared-memory (OpenMP-style) cost model of the SharedMemoryTarget:
/// the same-era SMP alternative to the SP2 — think a bus-based
/// PowerPC SMP node with the SP2's per-processor flop rate, so the
/// target comparison isolates the communication architecture, not the
/// CPU generation. There is no transfer phase and no per-message α;
/// instead the cost is dominated by
///   - barrier time at every synchronization point (a would-be message
///     becomes "producers reach the barrier, consumers read shared
///     lines"),
///   - combiner-tree stages for reductions (log2(P) lock/cache-line
///     handoffs instead of log2(P) messages), and
///   - coherence traffic: every shared line a consumer touches is one
///     line transfer, with a false-sharing penalty when many threads
///     pull a line that holds less than a line's worth of payload
///     (the privatized-copy analogue of the paper's replicated arrays
///     avoids exactly this traffic).
struct ShmCostModel {
    double barrierSec = 10e-6;        ///< all-threads barrier (centralized)
    double combineStageSec = 1.5e-6;  ///< one combiner-tree stage
    double lineSec = 0.5e-6;          ///< coherence transfer of one line
    double sharedBwSecPerByte = 1.0 / 200e6;  ///< shared-bus copy bandwidth
    int cacheLineBytes = 64;

    /// One synchronization point: producers reach the barrier before
    /// consumers may read what they wrote.
    [[nodiscard]] double barrier() const { return barrierSec; }
    /// Consumer-side read of `bytes` of another thread's data: line
    /// transfers plus the bus volume. `readers` > 1 models contention —
    /// concurrent pulls of the same lines serialize on the bus
    /// logarithmically (snoop/queueing), not linearly.
    [[nodiscard]] double sharedRead(double bytes, int readers = 1) const {
        return sharedReadAt(contentionFor(readers), bytes);
    }
    /// The bus contention factor of `readers` concurrent pulls.
    [[nodiscard]] static double contentionFor(int readers) {
        return readers > 1
                   ? 1.0 + std::ceil(std::log2(static_cast<double>(readers)))
                   : 1.0;
    }
    /// sharedRead() given contentionFor(readers), hoisted by callers
    /// that price one pattern many times.
    [[nodiscard]] double sharedReadAt(double contention, double bytes) const {
        const double lines =
            std::ceil(bytes / static_cast<double>(cacheLineBytes));
        return lines * lineSec * contention + bytes * sharedBwSecPerByte;
    }
    /// False-sharing penalty: `readers` threads each pulling a line that
    /// carries under one line of payload (an element-sized shared
    /// scalar ping-pongs its whole line around the machine).
    [[nodiscard]] double falseSharing(double bytes, int readers) const {
        if (bytes >= static_cast<double>(cacheLineBytes) || readers <= 1)
            return 0.0;
        return static_cast<double>(readers) * lineSec;
    }
    /// Combiner tree across `procs` thread-private partial results.
    [[nodiscard]] double combine(int procs) const {
        if (procs <= 1) return 0.0;
        return barrierSec +
               std::ceil(std::log2(static_cast<double>(procs))) *
                   (combineStageSec + lineSec);
    }
};

}  // namespace phpf
