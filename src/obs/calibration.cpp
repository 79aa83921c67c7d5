#include "obs/calibration.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ir/printer.h"
#include "ir/program.h"
#include "obs/metrics.h"
#include "runtime/spmd_sim.h"
#include "spmd/cost_eval.h"

namespace phpf::obs {

namespace {

constexpr double kEps = 1e-12;

std::string fmtSec(double s) {
    std::ostringstream os;
    os.precision(4);
    os << s;
    return os.str();
}

void finishRow(CalibrationRow& r) {
    if (std::abs(r.modeledSec) > kEps) {
        r.joined = true;
        r.errPct = std::abs(r.measuredSec - r.modeledSec) /
                   std::abs(r.modeledSec) * 100.0;
    }
}

}  // namespace

std::vector<int> CalibrationReport::worstRows(int n) const {
    std::vector<int> idx;
    for (int i = 0; i < static_cast<int>(rows.size()); ++i)
        if (rows[static_cast<size_t>(i)].joined) idx.push_back(i);
    std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
        return rows[static_cast<size_t>(a)].errPct >
               rows[static_cast<size_t>(b)].errPct;
    });
    if (static_cast<int>(idx.size()) > n)
        idx.resize(static_cast<size_t>(n));
    return idx;
}

Json CalibrationReport::toJson(int worstN) const {
    Json root = Json::object();
    root.set("schema", "phpf.calibration");

    Json sj = Json::object();
    sj.set("rows", static_cast<std::int64_t>(summary.rows));
    sj.set("joined", static_cast<std::int64_t>(summary.joined));
    sj.set("unmodeled", static_cast<std::int64_t>(summary.unmodeled));
    sj.set("decisions", static_cast<std::int64_t>(summary.decisions));
    sj.set("mape_sec_pct", summary.mapeSecPct);
    sj.set("mape_events_pct", summary.mapeEventsPct);
    sj.set("mape_bytes_pct", summary.mapeBytesPct);
    root.set("summary", std::move(sj));

    Histogram errHist;
    for (const CalibrationRow& r : rows)
        if (r.joined) errHist.record(r.errPct);
    Json q = Json::object();
    q.set("p50", errHist.p50());
    q.set("p90", errHist.p90());
    q.set("p99", errHist.p99());
    root.set("err_pct_quantiles", std::move(q));

    auto rowJson = [](const CalibrationRow& r) {
        Json j = Json::object();
        j.set("kind", r.kind);
        j.set("stmt", r.stmtId);
        if (r.opId >= 0) j.set("op", r.opId);
        j.set("label", r.label);
        if (!r.variable.empty()) j.set("variable", r.variable);
        j.set("modeled_sec", r.modeledSec);
        j.set("measured_sec", r.measuredSec);
        if (r.kind == "comm-op") {
            j.set("modeled_events", r.modeledEvents);
            j.set("measured_events", r.measuredEvents);
            j.set("modeled_bytes", r.modeledBytes);
            j.set("measured_bytes", r.measuredBytes);
        }
        j.set("joined", r.joined);
        j.set("err_pct", r.errPct);
        j.set("evidence", r.evidence);
        return j;
    };

    Json rj = Json::array();
    for (const CalibrationRow& r : rows) rj.push(rowJson(r));
    root.set("rows", std::move(rj));

    Json wj = Json::array();
    for (const int i : worstRows(worstN))
        wj.push(rowJson(rows[static_cast<size_t>(i)]));
    root.set("worst", std::move(wj));
    return root;
}

CalibrationReport buildCalibration(const SpmdLowering& low,
                                   const CostModel& cm,
                                   const SpmdSimulator& sim,
                                   const StmtProfile& prof,
                                   const DecisionLog& log) {
    CalibrationReport rep;
    const Program& p = low.program();
    CostEvaluator eval(low, cm);
    const DetailedCost det = eval.evaluateDetailed();

    // Per-statement compute: the evaluator's per-processor charge vs the
    // same flop rate applied to the busiest processor's actual
    // execution count (the measured critical path).
    p.forEachStmt([&](const Stmt* s) {
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) return;
        const double modeled =
            det.stmtCompute[static_cast<size_t>(s->id)].sec;
        const StmtProfile::Row& r = prof.row(s->id);
        if (modeled <= kEps && r.instances == 0) return;
        const double flops =
            flopsOf(s->kind == StmtKind::Assign ? s->rhs : s->cond) + 1.0;
        const double measured =
            cm.compute(flops) *
            static_cast<double>(prof.maxProcStmts(s->id));
        CalibrationRow row;
        row.kind = "stmt";
        row.stmtId = s->id;
        row.label = s->kind == StmtKind::Assign
                        ? printExpr(p, s->lhs) + " = " + printExpr(p, s->rhs)
                        : "if (" + printExpr(p, s->cond) + ")";
        if (s->kind == StmtKind::Assign && s->lhs->sym != kNoSymbol)
            row.variable = p.sym(s->lhs->sym).name;
        row.modeledSec = modeled;
        row.measuredSec = measured;
        finishRow(row);
        row.evidence = "stmt#" + std::to_string(s->id) + " '" + row.label +
                       "': model charged " + fmtSec(modeled) +
                       "s compute; run executed " +
                       std::to_string(r.instances) + " instances (" +
                       std::to_string(prof.maxProcStmts(s->id)) +
                       " on the busiest proc) -> re-costed " +
                       fmtSec(measured) + "s";
        if (!row.joined) {
            ++rep.summary.unmodeled;
            row.evidence += " [unmodeled]";
        }
        rep.rows.push_back(std::move(row));
    });

    // Per-comm-op: the evaluator's placed-message charge vs the
    // simulator's exact event/element counts re-costed through the same
    // latency + bandwidth terms.
    for (const CommOp& op : low.commOps()) {
        const DetailedCost::Charge& charge =
            det.opComm[static_cast<size_t>(op.id)];
        const double modeledSec = charge.sec;
        const std::int64_t modeledEvents = charge.events;
        const std::int64_t measuredEvents = sim.eventsOfOp(op.id);
        const std::int64_t measuredElems = sim.elementsOfOp(op.id);
        if (modeledSec <= kEps && measuredEvents == 0) continue;
        CalibrationRow row;
        row.kind = "comm-op";
        row.stmtId = op.atStmt != nullptr ? op.atStmt->id : -1;
        row.opId = op.id;
        row.label = (op.isReductionCombine ? "reduction-combine "
                                           : "comm ") +
                    printExpr(p, op.ref);
        if (op.ref->sym != kNoSymbol) row.variable = p.sym(op.ref->sym).name;
        row.modeledSec = modeledSec;
        row.modeledEvents = modeledEvents;
        // The volume term the model's charge implies (latency share
        // removed; message combining can make it zero).
        row.modeledBytes = std::max(
            0.0, (modeledSec -
                  static_cast<double>(modeledEvents) * cm.alphaSec) /
                     cm.betaSecPerByte);
        row.measuredEvents = measuredEvents;
        row.measuredBytes =
            static_cast<double>(measuredElems) * cm.elemBytes;
        row.measuredSec =
            static_cast<double>(measuredEvents) * cm.alphaSec +
            row.measuredBytes * cm.betaSecPerByte;
        finishRow(row);
        row.evidence = "op#" + std::to_string(op.id) + " '" + row.label +
                       "' @ stmt#" + std::to_string(row.stmtId) +
                       ": model placed " + std::to_string(modeledEvents) +
                       " events (" + fmtSec(modeledSec) +
                       "s); run recorded " + std::to_string(measuredEvents) +
                       " events / " + std::to_string(measuredElems) +
                       " elements -> re-costed " + fmtSec(row.measuredSec) +
                       "s";
        if (!row.joined) {
            ++rep.summary.unmodeled;
            row.evidence += " [unmodeled]";
        }
        rep.rows.push_back(std::move(row));
    }

    // Per-decision: the chosen alternative's modeled per-iteration cost
    // vs the per-instance cost the defining statement actually incurred
    // (re-costed compute on the busiest proc + the comm charged at that
    // statement, divided by the instance count).
    for (const DecisionRecord& d : log.records()) {
        ++rep.summary.decisions;
        CalibrationRow row;
        row.kind = "decision";
        row.stmtId = d.stmtId;
        row.variable = d.variable;
        row.label = std::string(decisionKindName(d.kind)) + " " + d.variable +
                    " -> " + d.chosen;
        const AlternativeCost* chosen = nullptr;
        for (const AlternativeCost& a : d.alternatives)
            if (a.chosen && a.feasible) chosen = &a;
        row.modeledSec = chosen != nullptr ? chosen->costSec : 0.0;

        std::string ev = "decision[" +
                         std::string(decisionKindName(d.kind)) + "] " +
                         d.variable + ": chose '" + d.chosen + "'";
        const Stmt* s = d.stmtId >= 0 ? p.stmtById(d.stmtId) : nullptr;
        const std::int64_t instances =
            s != nullptr ? prof.row(s->id).instances : 0;
        if (s != nullptr && instances > 0) {
            const Expr* e = s->kind == StmtKind::Assign
                                ? s->rhs
                                : (s->kind == StmtKind::If ? s->cond
                                                           : nullptr);
            double commSec = 0.0;
            for (const CommOp& op : low.commOps()) {
                if (op.atStmt != s) continue;
                commSec +=
                    static_cast<double>(sim.eventsOfOp(op.id)) * cm.alphaSec +
                    static_cast<double>(sim.elementsOfOp(op.id)) *
                        cm.elemBytes * cm.betaSecPerByte;
            }
            const double computeSec =
                cm.compute(flopsOf(e) + 1.0) *
                static_cast<double>(prof.maxProcStmts(s->id));
            row.measuredSec = (computeSec + commSec) /
                              static_cast<double>(instances);
            ev += " (modeled " + fmtSec(row.modeledSec) +
                  "s/iter) @ stmt#" + std::to_string(s->id) +
                  "; measured " + fmtSec(row.measuredSec) + "s/iter over " +
                  std::to_string(instances) + " instances (compute " +
                  fmtSec(computeSec) + "s + comm " + fmtSec(commSec) +
                  "s total)";
            finishRow(row);
        } else {
            ev += "; defining statement " +
                  (s == nullptr ? std::string("unknown")
                                : "#" + std::to_string(s->id)) +
                  " never executed in this run";
        }
        for (const AlternativeCost& a : d.alternatives) {
            if (a.chosen || !a.feasible) continue;
            ev += "; rejected " + a.name + " @ " + fmtSec(a.costSec) + "s";
        }
        if (!row.joined) ++rep.summary.unmodeled;
        row.evidence = std::move(ev);
        rep.rows.push_back(std::move(row));
    }

    // Summary MAPEs over the joined rows.
    double secErr = 0.0;
    int secN = 0;
    double evErr = 0.0;
    int evN = 0;
    double byErr = 0.0;
    int byN = 0;
    for (const CalibrationRow& r : rep.rows) {
        if (r.joined) {
            secErr += r.errPct;
            ++secN;
        }
        if (r.kind != "comm-op") continue;
        if (r.modeledEvents > 0) {
            evErr += std::abs(static_cast<double>(r.measuredEvents -
                                                  r.modeledEvents)) /
                     static_cast<double>(r.modeledEvents) * 100.0;
            ++evN;
        }
        if (r.modeledBytes > kEps) {
            byErr += std::abs(r.measuredBytes - r.modeledBytes) /
                     r.modeledBytes * 100.0;
            ++byN;
        }
    }
    rep.summary.rows = static_cast<int>(rep.rows.size());
    rep.summary.joined = secN;
    if (secN > 0) rep.summary.mapeSecPct = secErr / secN;
    if (evN > 0) rep.summary.mapeEventsPct = evErr / evN;
    if (byN > 0) rep.summary.mapeBytesPct = byErr / byN;
    return rep;
}

}  // namespace phpf::obs
