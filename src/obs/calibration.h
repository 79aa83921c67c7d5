#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/decision_log.h"
#include "obs/json.h"
#include "obs/profiler.h"

namespace phpf {
class SpmdLowering;
class SpmdSimulator;
struct CostModel;
}

namespace phpf::obs {

/// One predicted-vs-measured join: a statement's compute charge, a comm
/// op's communication charge, or a mapping DecisionRecord's chosen
/// alternative, each paired with the cost the simulated run actually
/// incurred.
///
/// "Measured" is *re-costed* from the simulator's exact, deterministic
/// counters (events, element transfers, per-proc statement executions)
/// through the same CostModel primitives — never wall time — so every
/// calibration row is bit-identical across runs, across cold/warm
/// service cache hits, and across machines. That is what lets
/// the model-error MAPE be committed as a bench baseline and
/// regression-gated in CI.
struct CalibrationRow {
    std::string kind;  ///< "stmt" | "comm-op" | "decision"
    int stmtId = -1;
    int opId = -1;          ///< comm-op rows only
    std::string label;      ///< rendered statement / op / decision
    std::string variable;   ///< symbol the row is about
    double modeledSec = 0.0;
    double measuredSec = 0.0;
    std::int64_t modeledEvents = 0;   ///< comm-op rows only
    std::int64_t measuredEvents = 0;
    double modeledBytes = 0.0;  ///< volume term implied by the model
    double measuredBytes = 0.0;
    bool joined = false;  ///< modeled cost large enough to compare
    double errPct = 0.0;  ///< |measured-modeled| / |modeled| * 100
    /// Human-readable evidence chain: what was predicted where, what
    /// the run measured, and (decisions) which alternatives lost.
    std::string evidence;
};

struct CalibrationSummary {
    int rows = 0;
    int joined = 0;     ///< rows entering the MAPE
    int unmodeled = 0;  ///< measured activity with ~zero modeled cost
    int decisions = 0;  ///< decision rows (== DecisionLog size)
    double mapeSecPct = 0.0;     ///< mean |err| over joined seconds
    double mapeEventsPct = 0.0;  ///< over joined comm-op event counts
    double mapeBytesPct = 0.0;   ///< over joined comm-op byte volumes
};

class CalibrationReport {
public:
    std::vector<CalibrationRow> rows;
    CalibrationSummary summary;

    /// Indices of the `n` joined rows with the largest errPct,
    /// descending (ties by row order).
    [[nodiscard]] std::vector<int> worstRows(int n) const;

    /// The run report's "calibration" section: summary, error
    /// quantiles, every row, and the worst-N offenders with evidence.
    [[nodiscard]] Json toJson(int worstN = 5) const;
};

/// Join the analytic cost model's per-statement and per-comm-op
/// predictions (CostEvaluator::evaluateDetailed) and every
/// DecisionRecord's chosen-alternative cost against the profiled run.
[[nodiscard]] CalibrationReport buildCalibration(const SpmdLowering& low,
                                                 const CostModel& cm,
                                                 const SpmdSimulator& sim,
                                                 const StmtProfile& prof,
                                                 const DecisionLog& log);

}  // namespace phpf::obs
