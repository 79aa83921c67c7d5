#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace phpf {
class Program;
}

namespace phpf::obs {

/// Per-statement execution profile of one simulated run, accumulated by
/// SpmdSimulator when profiling is enabled (SimulationRequest::profile /
/// `phpfc --profile`).
///
/// Counts (instances, per-proc statement executions, element transfers,
/// message events) are exact and — like every simulator metric —
/// bit-identical across runs: the simulator bumps them at statement
/// boundaries and merges, in deterministic order. Wall time is
/// 1-in-kSampleEvery sampled (a phase is microseconds long, so timing
/// every one would dominate it); the sample *counts* are deterministic
/// (the tick sequence advances once per phase), the sampled durations
/// are host-dependent.
class StmtProfile {
public:
    /// Wall-time sampling period (power of two); bench_profile_overhead
    /// holds the armed profiler to a <2% budget.
    static constexpr std::uint32_t kSampleEvery = 64;

    struct Row {
        std::int64_t instances = 0;  ///< statement instances executed
        std::int64_t procStmts = 0;  ///< per-proc executions (sum)
        std::int64_t elements = 0;   ///< element transfers consumed here
        std::int64_t events = 0;     ///< vectorized message events here
        std::int64_t evalSamples = 0;   ///< sampled eval phases
        std::int64_t mergeSamples = 0;  ///< sampled merge phases
        double evalUs = 0.0;   ///< sampled eval-phase wall time
        double mergeUs = 0.0;  ///< sampled merge-phase wall time
    };

    StmtProfile(int stmtCount, int procCount)
        : procCount_(procCount),
          rows_(static_cast<size_t>(stmtCount)),
          perProc_(static_cast<size_t>(stmtCount) *
                   static_cast<size_t>(procCount)) {}

    /// --- hot-path hooks (all O(1); the simulator calls them behind a
    /// --- single null check when profiling is off) ---

    /// A new instance of statement `id` starts executing (Assign / If).
    void beginStmt(int id) {
        cur_ = id;
        ++rows_[static_cast<size_t>(id)].instances;
    }
    /// Attribute subsequent events/elements to `id` without counting an
    /// instance (loop-end reduction combines).
    void setCurrent(int id) { cur_ = id; }

    /// The executor set of the current instance.
    void addExecutors(const std::vector<int>& execs) {
        Row& r = rows_[static_cast<size_t>(cur_)];
        r.procStmts += static_cast<std::int64_t>(execs.size());
        std::int64_t* base =
            perProc_.data() + static_cast<size_t>(cur_) *
                                  static_cast<size_t>(procCount_);
        for (const int p : execs) ++base[p];
    }
    /// One element transfer consumed by the current instance.
    void addElement() { ++rows_[static_cast<size_t>(cur_)].elements; }
    /// One vectorized message event attributed to the current instance.
    void addEvent() { ++rows_[static_cast<size_t>(cur_)].events; }

    /// 1-in-kSampleEvery sampling decisions, one tick per phase.
    [[nodiscard]] bool sampleEval() {
        return (evalTick_++ & (kSampleEvery - 1)) == 0;
    }
    [[nodiscard]] bool sampleMerge() {
        return (mergeTick_++ & (kSampleEvery - 1)) == 0;
    }
    void addEvalSample(double us) {
        Row& r = rows_[static_cast<size_t>(cur_)];
        ++r.evalSamples;
        r.evalUs += us;
    }
    void addMergeSample(double us) {
        Row& r = rows_[static_cast<size_t>(cur_)];
        ++r.mergeSamples;
        r.mergeUs += us;
    }

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
    /// (sampled eval + merge time) * kSampleEvery.
    [[nodiscard]] double selfUsEst(int id) const {
        const Row& r = rows_[static_cast<size_t>(id)];
        return (r.evalUs + r.mergeUs) * static_cast<double>(kSampleEvery);
    }

private:
    int procCount_ = 0;
    int cur_ = -1;  ///< statement id the hooks attribute to
    std::uint32_t evalTick_ = 0;
    std::uint32_t mergeTick_ = 0;
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
