#pragma once

#include <string>
#include <vector>

#include "spmd/cost_eval.h"

namespace phpf {

/// Itemized cost attribution: which statements and which communication
/// operations the predicted time goes to. Used by `phpfc --cost` and the
/// examples to explain *why* a mapping variant wins.
struct CostItem {
    const Stmt* stmt = nullptr;
    std::string what;        ///< rendered statement / comm description
    double seconds = 0.0;
    bool isComm = false;
    int op = -1;  ///< CommOp::id of a comm item
    std::int64_t events = 0;
};

struct CostReport {
    /// Sorted by cost, descending; equal costs by statement id, calc
    /// before comm, then op id.
    std::vector<CostItem> items;
    CostBreakdown total;

    [[nodiscard]] std::string str(const Program& p, int topN = 10) const;
};

/// Evaluate the lowered program and attribute cost per statement and
/// per communication op. `shm` non-null prices communication with the
/// shared-memory model (CostEvaluator's shm mode); null is the exact
/// message-passing attribution.
[[nodiscard]] CostReport buildCostReport(const SpmdLowering& low,
                                         const CostModel& cm,
                                         const ShmCostModel* shm = nullptr);

}  // namespace phpf
