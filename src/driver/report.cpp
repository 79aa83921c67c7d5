// JSON run report assembly (Compilation::buildRunReport and the file
// writers). Lives in the driver because it stitches together every
// layer's observability surface: pass spans (obs::Tracer), mapping
// decision records (privatize), the analytic cost prediction (spmd),
// simulation metrics (runtime), and collected diagnostics (support).

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "driver/compiler.h"
#include "ir/printer.h"
#include "obs/calibration.h"
#include "obs/chrome_trace.h"
#include "obs/profiler.h"
#include "spmd/cost_report.h"

namespace phpf {

namespace {

const char* severityName(DiagSeverity s) {
    switch (s) {
        case DiagSeverity::Note: return "note";
        case DiagSeverity::Warning: return "warning";
        case DiagSeverity::Error: return "error";
    }
    return "?";
}

obs::Json optionsJson(const TargetConfig& t, const PassOptions& po) {
    obs::Json j = obs::Json::object();
    j.set("target", targetKindName(t.targetKind));
    j.set("engine", simEngineName(po.simEngine));
    j.set("relaxed_merge", po.relaxedMerge);
    j.set("selection",
          printExecSelection(ExecSelection::selectionOf(t, po)));
    j.set("privatization", po.mapping.privatization);
    j.set("align_policy",
          po.mapping.alignPolicy == MappingOptions::AlignPolicy::Selected
              ? "selected"
              : "producer-only");
    j.set("reduction_alignment", po.mapping.reductionAlignment);
    j.set("array_privatization", po.mapping.arrayPrivatization);
    j.set("partial_privatization", po.mapping.partialPrivatization);
    j.set("auto_array_privatization", po.mapping.autoArrayPrivatization);
    j.set("control_flow_privatization", po.mapping.controlFlowPrivatization);
    j.set("rewrite_induction", po.rewriteInduction);
    j.set("elem_bytes", t.costModel.elemBytes);
    j.set("combine_messages", t.costModel.combineMessages);
    return j;
}

obs::Json passesJson(const obs::Tracer& tracer) {
    obs::Json arr = obs::Json::array();
    for (const obs::TraceSpan& s : tracer.spans()) {
        if (s.category != "pass" && s.category != "sim") continue;
        obs::Json j = obs::Json::object();
        j.set("name", s.name);
        j.set("start_us", static_cast<double>(s.startNs) / 1000.0);
        j.set("wall_us",
              static_cast<double>(s.closed() ? s.durNs : 0) / 1000.0);
        j.set("depth", s.depth);
        arr.push(std::move(j));
    }
    return arr;
}

obs::Json simulationJson(const SpmdSimulator& sim, const SpmdLowering& low) {
    obs::Json j = obs::Json::object();
    j.set("target", targetKindName(sim.targetKind()));
    j.set("proc_count", sim.procCount());
    j.set("engine", simEngineName(sim.engine()));
    j.set("relaxed_merge", sim.relaxedMerge());
    j.set("wall_sec", sim.wallSec());
    j.set("message_events", sim.messageEvents());
    if (sim.targetKind() == TargetKind::SharedMemory)
        j.set("barrier_events", sim.barrierEvents());
    j.set("element_transfers", sim.elementTransfers());
    j.set("bytes_moved", sim.bytesMoved());
    j.set("elem_bytes", sim.elemBytes());
    j.set("statements_executed_all_procs", sim.statementsExecutedAllProcs());

    obs::Json perProc = obs::Json::array();
    std::int64_t maxStmts = 0;
    std::int64_t minStmts = 0;
    for (size_t p = 0; p < sim.procMetrics().size(); ++p) {
        const ProcSimMetrics& m = sim.procMetrics()[p];
        maxStmts = std::max(maxStmts, m.stmtsExecuted);
        minStmts = p == 0 ? m.stmtsExecuted
                          : std::min(minStmts, m.stmtsExecuted);
        obs::Json pj = obs::Json::object();
        pj.set("proc", static_cast<std::int64_t>(p));
        pj.set("stmts_executed", m.stmtsExecuted);
        pj.set("stmts_guard_skipped", m.stmtsSkipped);
        pj.set("recv_elements", m.recvElements);
        pj.set("sent_elements", m.sentElements);
        pj.set("recv_bytes", m.recvElements * sim.elemBytes());
        pj.set("sent_bytes", m.sentElements * sim.elemBytes());
        perProc.push(std::move(pj));
    }
    j.set("per_proc", std::move(perProc));

    obs::Json imbalance = obs::Json::object();
    imbalance.set("max_stmts", maxStmts);
    imbalance.set("min_stmts", minStmts);
    imbalance.set("ratio", sim.imbalanceRatio());
    j.set("imbalance", std::move(imbalance));

    obs::Json perOp = obs::Json::array();
    const Program& p = low.program();
    for (const CommOp& op : low.commOps()) {
        obs::Json oj = obs::Json::object();
        oj.set("op", op.id);
        oj.set("ref", printExpr(p, op.ref));
        oj.set("pattern", op.isReductionCombine
                              ? "reduction-combine"
                              : commPatternName(op.req.overall));
        oj.set("placement_level", op.placementLevel);
        oj.set("events", sim.eventsOfOp(op.id));
        oj.set("elements", sim.elementsOfOp(op.id));
        oj.set("bytes", sim.elementsOfOp(op.id) * sim.elemBytes());
        perOp.push(std::move(oj));
    }
    j.set("per_op", std::move(perOp));
    return j;
}

}  // namespace

obs::Json Compilation::buildRunReport(const SpmdSimulator* sim) const {
    obs::Json root = obs::Json::object();
    root.set("schema", "phpf.run_report");
    // v2: metric histograms carry p50/p90/p99 quantile estimates in
    // addition to count/sum/min/max/mean.
    // v3: profiled runs add the "profile" (per-statement measured
    // counts/times) and "calibration" (predicted-vs-measured model
    // error with per-DecisionRecord joins) sections.
    // v4: the simulator runs on one thread; "simulation" drops its
    // thread count and parallel-speedup estimate.
    // v5: no "metrics" key (it embedded a process-wide registry that
    // nothing wrote, so it was {} on every run).
    // v6: profile rows carry one clock sample per timed statement
    // instance ("samples"/"sampled_us") in place of the separate
    // eval/merge phase samples.
    root.set("schema_version", 6);
    root.set("program", program_ != nullptr ? program_->name : "");

    obs::Json grid = obs::Json::array();
    for (int e : target_.gridExtents) grid.push(e);
    root.set("grid", std::move(grid));
    root.set("total_procs", dataMapping_->grid().totalProcs());
    root.set("options", optionsJson(target_, passes_));
    root.set("induction_rewrites", inductionRewrites_);

    if (tracer_ != nullptr) root.set("passes", passesJson(*tracer_));

    obs::Json diags = obs::Json::array();
    for (const Diagnostic& d : diagnostics_) {
        obs::Json dj = obs::Json::object();
        dj.set("severity", severityName(d.severity));
        dj.set("line", static_cast<std::int64_t>(d.loc.line));
        dj.set("col", static_cast<std::int64_t>(d.loc.column));
        dj.set("message", d.message);
        diags.push(std::move(dj));
    }
    root.set("diagnostics", std::move(diags));

    root.set("decisions", mappingPass_->decisionLog().toJson());

    root.set("target", compileTarget().describe(target_));

    // The memoized pricing of each target: the compiled target's is the
    // cost prediction, and both feed the target comparison.
    const CostBreakdown mp = predictCostFor(TargetKind::MessagePassing);
    const CostBreakdown shm = predictCostFor(TargetKind::SharedMemory);
    {
        const CostBreakdown& cb =
            target_.targetKind == TargetKind::SharedMemory ? shm : mp;
        obs::Json cj = obs::Json::object();
        cj.set("compute_sec", cb.computeSec);
        cj.set("comm_sec", cb.commSec);
        cj.set("total_sec", cb.totalSec());
        cj.set("message_events", cb.messageEvents);
        cj.set("comm_bytes", cb.commBytes);
        root.set("cost_prediction", std::move(cj));
    }

    {
        // The decision layer: price the SAME lowering under every
        // backend's machine model and record which target wins for this
        // kernel at this grid size. Cross-pricing is sound because the
        // lowering structure is target-independent (Target::lower); the
        // sync-event counts differ from a dedicated recompile only in
        // interpretation, not in number.
        obs::Json cmp = obs::Json::object();
        auto breakdownJson = [](const CostBreakdown& cb) {
            obs::Json cj = obs::Json::object();
            cj.set("compute_sec", cb.computeSec);
            cj.set("comm_sec", cb.commSec);
            cj.set("total_sec", cb.totalSec());
            cj.set("sync_events", cb.messageEvents);
            cj.set("comm_bytes", cb.commBytes);
            return cj;
        };
        cmp.set("mp", breakdownJson(mp));
        cmp.set("shm", breakdownJson(shm));
        const TargetKind winner = shm.totalSec() < mp.totalSec()
                                      ? TargetKind::SharedMemory
                                      : TargetKind::MessagePassing;
        const double slower = std::max(mp.totalSec(), shm.totalSec());
        const double faster = std::min(mp.totalSec(), shm.totalSec());
        obs::Json decision = obs::Json::object();
        decision.set("winner", targetKindName(winner));
        decision.set("compiled_for", targetKindName(target_.targetKind));
        decision.set("speedup", faster > 0.0 ? slower / faster : 1.0);
        decision.set("procs", dataMapping_->grid().totalProcs());
        {
            char why[256];
            std::snprintf(
                why, sizeof why,
                "%s wins at P=%d: mp %.6fs (comm %.6fs) vs shm %.6fs "
                "(comm %.6fs); compute is target-independent, the gap is "
                "%s",
                targetKindName(winner), dataMapping_->grid().totalProcs(),
                mp.totalSec(), mp.commSec, shm.totalSec(), shm.commSec,
                winner == TargetKind::SharedMemory
                    ? "message latency the SMP's barriers/coherence avoid"
                    : "barrier/coherence overhead exceeding message costs");
            decision.set("rationale", why);
        }
        cmp.set("decision", std::move(decision));
        root.set("target_comparison", std::move(cmp));
    }

    {
        obs::Json ops = obs::Json::array();
        const Program& p = lowering_->program();
        for (const CommOp& op : lowering_->commOps()) {
            obs::Json oj = obs::Json::object();
            oj.set("op", op.id);
            oj.set("ref", printExpr(p, op.ref));
            oj.set("pattern", op.isReductionCombine
                                  ? "reduction-combine"
                                  : commPatternName(op.req.overall));
            oj.set("placement_level", op.placementLevel);
            ops.push(std::move(oj));
        }
        root.set("comm_ops", std::move(ops));
    }

    if (sim != nullptr) root.set("simulation", simulationJson(*sim, *lowering_));

    if (sim != nullptr && sim->profile() != nullptr) {
        root.set("profile", obs::profileJson(lowering_->program(),
                                             *sim->profile(),
                                             sim->elemBytes()));
        const obs::CalibrationReport cal = obs::buildCalibration(
            *lowering_, target_.costModel, *sim, *sim->profile(),
            mappingPass_->decisionLog());
        root.set("calibration", cal.toJson());
    }

    return root;
}

bool Compilation::writeReport(const std::string& path,
                              const SpmdSimulator* sim) const {
    std::ofstream out(path);
    if (!out) return false;
    out << buildRunReport(sim).dump() << "\n";
    return static_cast<bool>(out);
}

bool Compilation::writeChromeTrace(const std::string& path) const {
    if (tracer_ == nullptr) return false;
    return obs::writeChromeTrace(*tracer_, path,
                                 program_ != nullptr ? "phpf " + program_->name
                                                     : "phpf");
}

}  // namespace phpf
