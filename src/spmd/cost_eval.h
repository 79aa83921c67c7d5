#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/cost_model.h"
#include "spmd/lowering.h"

namespace phpf {

class ConstProp;

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
/// the cost report and calibration).
struct DetailedCost {
    /// One statement's compute charge or one comm op's charge.
    /// `attributed` is false for an entry the walk never reached (say,
    /// inside a zero-trip loop); readers leave such entries out.
    struct Charge {
        double sec = 0.0;
        std::int64_t events = 0;  ///< comm ops: placed messages
        bool attributed = false;
    };
    CostBreakdown totals;
    std::vector<Charge> stmtCompute;  ///< by Stmt::id
    std::vector<Charge> opComm;       ///< by CommOp::id
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
/// loop-index values, and both evaluate() and evaluateDetailed() run
/// that plan:
///  - each loop's bounds as affine forms over the loop indices (an
///    unbound index reads as 1), or the bound expression itself when it
///    is not affine;
///  - the loop tree as one array of compute items and nested loops in
///    walk order, where a loop's body and everything nested in it are
///    contiguous;
///  - a leaf loop with no ops placed in it, and a perfect nest of such
///    loops above one, folded into the leaf's body sum, charged as sum x
///    trips (a fresh accumulator sums the same constants in the same
///    order on every visit, so this is exact);
///  - per comm op the loops that size its message (with their divisors
///    and shift clamps), its pattern's fixed terms and its stage count,
///    and per placement its message groups in charging order.
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
    /// An integer loop bound: `c0 + Σ coeff · index(var)` when it is
    /// affine in scalar variables, else the expression (`tree`).
    struct Bound {
        std::int64_t c0 = 0;
        std::vector<std::pair<SymbolId, std::int64_t>> terms;
        const Expr* tree = nullptr;
    };
    /// A loop between an op's placement and its statement that indexes
    /// the moved reference: its trips multiply the message volume.
    struct SizingLoop {
        int loop = 0;          ///< index into loops_
        double divisor = 1.0;  ///< source processors sharing its iterations
        std::int64_t shiftClamp = -1;  ///< >= 0: only a strip this wide moves
    };
    /// Everything about one message op that no loop index changes.
    struct OpPlan {
        int op = 0;   ///< CommOp::id
        int key = 0;  ///< message group: ops with one key share a charge
        CommPattern pattern = CommPattern::None;
        std::vector<SizingLoop> loops;
        int patternProcs = 1;
        double stages = 0.0;         ///< CostModel::stagesFor(patternProcs)
        double contention = 1.0;     ///< shm: contentionFor(its readers)
        int sharers = 2;             ///< shm: threads touching a moved line
        double shiftFraction = 1.0;  ///< instance-level shift crossings
        bool srcSingle = true;       ///< General: one source per event
    };
    /// The ops placed at one point, in charging order: reduction combines
    /// first, then the message ops in ascending group key. With
    /// combineMessages the key is pattern x procs, otherwise each op is a
    /// group of its own, keyed by its order.
    struct Placement {
        std::vector<std::pair<int, double>> combines;  ///< (op id, seconds)
        std::vector<OpPlan> ops;
    };
    /// One entry of the walk-order item array: a compute charge or a
    /// nested loop.
    struct Item {
        int loop = -1;  ///< >= 0: index into loops_
        int stmt = -1;  ///< otherwise the Assign/If (Stmt::id) charged
        double sec = 0.0;
    };
    struct LoopPlan {
        SymbolId var = kNoSymbol;
        Bound lb, ub, step;
        bool unitStep = true;
        bool readsIndex = false;  ///< a nested loop bound reads `var`
        /// > 0: this loop heads a perfect nest of foldDepth loops without
        /// ops whose innermost is a leaf; it is charged as the leaf's
        /// body sum `foldedSec` times each loop's trips.
        int foldDepth = 0;
        double foldedSec = 0.0;
        Placement ops;  ///< the ops placed in this loop
        /// items_[first, end) is the body and everything nested in it.
        std::uint32_t first = 0, end = 0;
    };
    struct Range {
        std::int64_t lb = 0, step = 1, trips = 0;
    };
    struct OpCharge {
        double cost = 0.0;     ///< full message cost (latency + volume)
        double latency = 0.0;  ///< the per-message latency component
        double bytes = 0.0;
    };

    /// Plan `block` into items_ and loops_; `nest` holds the enclosing
    /// loops, outermost first, and loopOf records each Do's loops_ index.
    /// `cp` is the constant propagation over the lowering's SSA, built
    /// by the first bound that reads a scalar other than an enclosing
    /// loop's index.
    void planBlock(const SpmdLowering& low, const std::vector<Stmt*>& block,
                   std::vector<const Stmt*>& nest, std::vector<int>& loopOf,
                   std::unique_ptr<ConstProp>& cp);
    /// Record in constOfUse_ the ConstProp value of every scalar in
    /// bound `e` that is no index of a loop in `nest`.
    void foldScalars(const SpmdLowering& low, const Expr* e,
                     const std::vector<const Stmt*>& nest,
                     std::unique_ptr<ConstProp>& cp);
    /// Plan `op` into the ops of its placement point `at`; `inside` are
    /// the loops between the placement and the op's statement, outermost
    /// first, and loopOf maps a Do's Stmt::id to its loops_ index.
    void place(const SpmdLowering& low, const CommOp& op,
               std::span<Stmt* const> inside, const std::vector<int>& loopOf,
               Placement& at) const;

    // Acc is CostBreakdown (evaluate) or DetailedCost (evaluateDetailed).
    template <class Acc>
    void walkItems(std::uint32_t first, std::uint32_t end, Acc& out);
    template <class Acc> void walkLoop(const LoopPlan& loop, Acc& out);
    template <class Acc> void chargeFolded(const LoopPlan& head, Acc& out);
    template <class Acc> void chargeAt(const Placement& at, Acc& out);
    [[nodiscard]] OpCharge chargeOf(const OpPlan& p) const;
    /// Move a fresh scope's charges of `loop`'s entries into `out`,
    /// `trips` times over, and leave them zero in `one`.
    void scaleScope(DetailedCost& out, DetailedCost& one,
                    const LoopPlan& loop, std::int64_t trips) const;

    [[nodiscard]] std::int64_t evalInt(const Expr* e) const;
    [[nodiscard]] std::int64_t valueOf(const Bound& b) const;
    /// Lower bound, step and trip count of `loop` under the bound indices.
    [[nodiscard]] Range rangeOf(const LoopPlan& loop) const;

    /// Deeper perfect nests fold only their innermost kMaxFoldDepth loops.
    static constexpr int kMaxFoldDepth = 8;

    const CostModel& cm_;
    const ShmCostModel* shm_ = nullptr;  ///< non-null: shared-memory charging
    const Program& prog_;

    std::vector<Item> items_;
    std::vector<LoopPlan> loops_;
    Placement topOps_;
    std::size_t opCount_ = 0;
    /// Deepest nest of scaled (iterated-once) loops that are not folded:
    /// evaluateDetailed needs one fresh accumulator per level.
    int scopeDepth_ = 0;
    std::vector<OpCharge> charges_;  ///< chargeAt's scratch for a group
    /// By SymbolId: the bound loop indices' values, 1 for every other
    /// scalar (an unbound scalar in a bound reads as 1).
    std::vector<std::int64_t> index_;
    /// By Expr::id: a bound's scalar read that constant propagation
    /// proves constant, folded to its value (empty when no bound reads a
    /// scalar other than a loop index).
    std::vector<std::optional<std::int64_t>> constOfUse_;
};

}  // namespace phpf
