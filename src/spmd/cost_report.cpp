#include "spmd/cost_report.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "ir/printer.h"

namespace phpf {

CostReport buildCostReport(const SpmdLowering& low, const CostModel& cm,
                           const ShmCostModel* shm) {
    CostEvaluator eval(low, cm, shm);
    const DetailedCost detail = eval.evaluateDetailed();

    CostReport report;
    report.total = detail.totals;
    const Program& p = low.program();

    for (size_t id = 0; id < detail.stmtCompute.size(); ++id) {
        const DetailedCost::Charge& charge = detail.stmtCompute[id];
        if (!charge.attributed) continue;
        const Stmt* stmt = p.stmtById(static_cast<int>(id));
        CostItem item;
        item.stmt = stmt;
        item.seconds = charge.sec;
        item.isComm = false;
        if (stmt->kind == StmtKind::Assign)
            item.what = printExpr(p, stmt->lhs) + " = " +
                        printExpr(p, stmt->rhs);
        else
            item.what = "if (" + printExpr(p, stmt->cond) + ")";
        report.items.push_back(std::move(item));
    }
    for (const CommOp& op : low.commOps()) {
        const DetailedCost::Charge& charge =
            detail.opComm[static_cast<size_t>(op.id)];
        if (!charge.attributed) continue;
        CostItem item;
        item.stmt = op.atStmt;
        item.seconds = charge.sec;
        item.isComm = true;
        item.op = op.id;
        item.events = charge.events;
        if (op.isReductionCombine)
            item.what = "combine " + printExpr(p, op.ref);
        else
            item.what = std::string(commPatternName(op.req.overall)) + " " +
                        printExpr(p, op.ref) + " @level " +
                        std::to_string(op.placementLevel);
        report.items.push_back(std::move(item));
    }
    // std::sort is not stable, so equal costs need a full tie-break for
    // the report to be a function of its inputs.
    std::sort(report.items.begin(), report.items.end(),
              [](const CostItem& a, const CostItem& b) {
                  if (a.seconds != b.seconds) return a.seconds > b.seconds;
                  return std::tuple(a.stmt->id, a.isComm, a.op) <
                         std::tuple(b.stmt->id, b.isComm, b.op);
              });
    return report;
}

std::string CostReport::str(const Program& p, int topN) const {
    (void)p;
    std::ostringstream os;
    os << "cost attribution (top " << topN << "):\n";
    int n = 0;
    for (const CostItem& item : items) {
        if (n++ >= topN) break;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%12.6f s  %s", item.seconds,
                      item.isComm ? "comm " : "calc ");
        os << buf << item.what;
        if (item.isComm) os << "  (" << item.events << " events)";
        os << "\n";
    }
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "total: %.6f s (compute %.6f, comm %.6f, %lld messages)\n",
                  total.totalSec(), total.computeSec, total.commSec,
                  static_cast<long long>(total.messageEvents));
    os << buf;
    return os.str();
}

}  // namespace phpf
