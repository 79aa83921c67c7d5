#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace phpf {
class Program;
}

namespace phpf::obs {

/// Per-statement execution profile of one simulated run
/// (SimulationRequest::profile / `phpfc --profile`): a post-run view
/// over the simulator's own accounting.
///
/// Counts (instances, per-proc statement executions, element transfers,
/// message events) are exact and — like every simulator metric —
/// bit-identical across runs: SpmdSimulator::flushAccounting fills them
/// from the per-statement execution table and per-op transfer counters
/// it keeps whether or not profiling is armed. Wall time is
/// 1-in-kSampleEvery sampled: the simulator times one Assign/If instance
/// in kSampleEvery (an instance takes well under a microsecond, so two
/// clock reads on every one would dominate it). The sample *counts* are
/// deterministic (the tick advances once per instance); the sampled
/// durations are host-dependent.
class StmtProfile {
public:
    /// Wall-time sampling period (power of two); bench_profile_overhead
    /// holds the armed profiler to a <2% budget.
    static constexpr std::uint32_t kSampleEvery = 256;

    struct Row {
        std::int64_t instances = 0;  ///< statement instances executed
        std::int64_t procStmts = 0;  ///< per-proc executions (sum)
        std::int64_t elements = 0;   ///< element transfers consumed here
        std::int64_t events = 0;     ///< vectorized message events here
        std::int64_t samples = 0;    ///< timed instances
        double sampledUs = 0.0;      ///< wall time of the timed instances
    };

    StmtProfile(int stmtCount, int procCount)
        : procCount_(procCount),
          rows_(static_cast<size_t>(stmtCount)),
          perProc_(static_cast<size_t>(stmtCount) *
                   static_cast<size_t>(procCount)) {}

    /// One timed instance of statement `id` took `us` microseconds.
    void addSample(int id, double us) {
        Row& r = rows_[static_cast<size_t>(id)];
        ++r.samples;
        r.sampledUs += us;
    }
    /// Post-run fill: statement `id` ran `instances` times, `perProc[p]`
    /// of them on processor p, and its fetches (a Do: its loop-end
    /// combines) moved `elements` elements in `events` message events.
    void setCounts(int id, std::int64_t instances, const std::int64_t* perProc,
                   std::int64_t elements, std::int64_t events);

    /// --- read side ---

    [[nodiscard]] int stmtCount() const {
        return static_cast<int>(rows_.size());
    }
    [[nodiscard]] int procCount() const { return procCount_; }
    [[nodiscard]] const Row& row(int id) const {
        return rows_[static_cast<size_t>(id)];
    }
    /// Per-proc executions of statement `id` on processor `p`.
    [[nodiscard]] std::int64_t procStmtsOf(int id, int p) const {
        return perProc_[static_cast<size_t>(id) *
                            static_cast<size_t>(procCount_) +
                        static_cast<size_t>(p)];
    }
    /// Executions on the busiest processor for statement `id` — the
    /// per-statement critical-path length (0 when never executed).
    [[nodiscard]] std::int64_t maxProcStmts(int id) const;
    /// max/mean executor load of one statement (1.0 = balanced, 0.0 =
    /// never executed) — the per-statement analogue of the simulator's
    /// global imbalanceRatio().
    [[nodiscard]] double imbalanceOf(int id) const;
    /// Extrapolated self wall time of statement `id` in microseconds:
    /// sampled time * kSampleEvery.
    [[nodiscard]] double selfUsEst(int id) const {
        return rows_[static_cast<size_t>(id)].sampledUs *
               static_cast<double>(kSampleEvery);
    }

private:
    int procCount_ = 0;
    std::vector<Row> rows_;               ///< by Stmt::id
    std::vector<std::int64_t> perProc_;   ///< [stmt * procCount + proc]
};

/// The run report's "profile" section: one row per executed statement
/// (rendered source text, counts, sampled times, per-statement
/// imbalance), totals, and self-time quantiles.
[[nodiscard]] Json profileJson(const Program& p, const StmtProfile& prof,
                               int elemBytes);

/// Flamegraph collapsed-stack rendering ("frame;frame;leaf value\n",
/// one line per executed leaf statement, value = extrapolated self µs):
/// the statement's enclosing Do-loop nest is the stack, so
/// flamegraph.pl turns it into a loop-nest flame graph.
[[nodiscard]] std::string foldedStacks(const Program& p,
                                       const StmtProfile& prof);

}  // namespace phpf::obs
