#pragma once

#include <map>
#include <optional>
#include <unordered_map>

#include "comm/cost_model.h"
#include "spmd/lowering.h"

namespace phpf {

/// Predicted execution profile of the SPMD program on the modelled
/// machine.
struct CostBreakdown {
    double computeSec = 0.0;
    double commSec = 0.0;
    std::int64_t messageEvents = 0;  ///< placed (vectorized) messages
    double commBytes = 0.0;          ///< per-processor bytes moved

    [[nodiscard]] double totalSec() const { return computeSec + commSec; }
};

/// CostBreakdown plus per-statement / per-comm-op attribution (used by
/// the cost report).
struct DetailedCost {
    CostBreakdown totals;
    std::unordered_map<const Stmt*, double> stmtCompute;
    std::unordered_map<int, double> opComm;          ///< by CommOp::id
    std::unordered_map<int, std::int64_t> opEvents;  ///< by CommOp::id
};

/// Flops the evaluator charges for evaluating `e`: one per Unary/Binary
/// node, 8 for Sqrt/Exp calls and 1 for other intrinsics.
[[nodiscard]] double flopsOf(const Expr* e);

/// Analytic performance evaluation of a lowered SPMD program: walks the
/// loop tree, computes per-processor iteration counts from the
/// distribution arithmetic, and charges each communication op at its
/// vectorization level with the SP2 cost model. Loops whose bodies are
/// iteration-independent are evaluated once and scaled by their trip
/// count; triangular nests (DGEFA) iterate the outer loop numerically.
///
/// The constructor plans once everything that does not depend on
/// loop-index values: per statement its compute seconds, per loop the
/// ops placed there and whether its body reads its index, per comm op
/// the loops that size its message (with their divisors and shift
/// clamps) and its pattern's fixed terms. The walk keeps the bound
/// indices in a flat per-SymbolId vector, so an iteration only
/// evaluates loop bounds and trip counts.
///
/// The result is the "execution time" our reproduction reports in place
/// of the paper's wall-clock SP2 measurements.
class CostEvaluator {
public:
    /// `shm` non-null switches communication charging to the
    /// shared-memory machine model: comm ops price as barrier +
    /// coherence reads (+ false sharing) and reduction combines as
    /// combiner trees, while the loop-walking / trip-count / volume
    /// machinery — and the compute charge, same-era CPUs — stay the
    /// target-independent code path. Null (the default) is the exact
    /// pre-Target message-passing evaluation, bit for bit.
    CostEvaluator(const SpmdLowering& low, const CostModel& cm,
                  const ShmCostModel* shm = nullptr);

    [[nodiscard]] CostBreakdown evaluate();
    /// Same evaluation with per-statement / per-op attribution.
    [[nodiscard]] DetailedCost evaluateDetailed();

private:
    /// A loop between an op's placement and its statement that indexes
    /// the moved reference: its trips multiply the message volume.
    struct SizingLoop {
        const Stmt* loop = nullptr;
        double divisor = 1.0;  ///< source processors sharing its iterations
        std::int64_t shiftClamp = -1;  ///< >= 0: only a strip this wide moves
    };
    /// Everything about one message op that no loop index changes.
    struct OpPlan {
        const CommOp* op = nullptr;
        std::vector<SizingLoop> loops;
        int patternProcs = 1;
        double shiftFraction = 1.0;  ///< instance-level shift crossings
        bool srcSingle = true;       ///< General: one source per event
    };
    /// The ops placed at one point, in charging order: reduction combines
    /// first, then the message groups in ascending key order. With
    /// combineMessages the key is pattern x procs, otherwise each op is a
    /// group of its own, keyed by its order.
    struct Placement {
        std::vector<std::pair<int, double>> combines;  ///< (op id, seconds)
        std::map<int, std::vector<OpPlan>> groups;
    };
    /// What the walk needs of one statement, indexed by Stmt::id.
    struct StmtPlan {
        double computeSec = 0.0;  ///< Assign/If: one instance, per processor
        bool readsIndex = false;  ///< Do: a nested loop bound reads its index
        Placement ops;            ///< Do: the ops placed in this loop
    };
    struct OpCharge {
        double cost = 0.0;     ///< full message cost (latency + volume)
        double latency = 0.0;  ///< the per-message latency component
        double bytes = 0.0;
    };

    /// Plan `op` into the ops of its placement point.
    void place(const SpmdLowering& low, const CommOp& op,
               Placement& at) const;

    // Acc is CostBreakdown (evaluate) or DetailedCost (evaluateDetailed).
    template <class Acc> [[nodiscard]] Acc walk();
    template <class Acc>
    void walkBlock(const std::vector<Stmt*>& block, Acc& out);
    template <class Acc> void walkLoop(const Stmt* loop, Acc& out);
    template <class Acc> void chargeAt(const Placement& at, Acc& out);
    [[nodiscard]] OpCharge chargeOf(const OpPlan& p) const;

    [[nodiscard]] std::int64_t evalInt(const Expr* e) const;
    /// Trip count of `loop` under the bound indices (its lower bound in
    /// `*lb` when given).
    [[nodiscard]] std::int64_t tripsOf(const Stmt* loop,
                                       std::int64_t* lb = nullptr) const;

    const CostModel& cm_;
    const ShmCostModel* shm_ = nullptr;  ///< non-null: shared-memory charging
    const Program& prog_;

    std::vector<StmtPlan> plan_;
    Placement topOps_;
    std::vector<std::optional<std::int64_t>> index_;  ///< by SymbolId
};

}  // namespace phpf
