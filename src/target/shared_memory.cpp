#include <set>
#include <sstream>
#include <unordered_map>

#include "ir/printer.h"
#include "spmd/local_bounds.h"
#include "target/target.h"

namespace phpf {
namespace target_detail {

namespace {

/// OpenMP-style emission of the lowered program: the same guard/comm-op
/// structure as the message-passing text, read through the
/// shared-memory dictionary — privatized variables become
/// !$omp threadprivate copies, owner-computes guards become the static
/// schedule, placed comm ops become barrier-then-shared-read sync
/// epochs, and reduction combines become combiner trees. This is the
/// human-readable form of what an AutOMP-style code generator would
/// emit as Fortran+OpenMP.
class ShmEmitter {
public:
    explicit ShmEmitter(const SpmdLowering& low)
        : low_(low), prog_(low.program()) {
        for (const CommOp& op : low.commOps()) {
            if (op.placementLevel == 0) {
                topOps_.push_back(&op);
            } else {
                const Stmt* loop =
                    prog_.enclosingLoopAtLevel(op.atStmt, op.placementLevel);
                if (loop != nullptr) opsByLoop_[loop].push_back(&op);
            }
        }
    }

    std::string run() {
        os_ << "! shared-memory (OpenMP-style) form of '" << prog_.name
            << "' on " << low_.dataMapping().grid().totalProcs()
            << " threads, grid " << low_.dataMapping().grid().str() << "\n";
        emitThreadprivate();
        os_ << "!$omp parallel\n";
        for (const CommOp* op : topOps_) emitOp(op, 0);
        emitBlock(prog_.top, 0);
        os_ << "!$omp end parallel\n";
        return os_.str();
    }

private:
    /// One threadprivate directive naming every privatized variable:
    /// the scalar definitions the mapping pass privatized (aligned or
    /// not) and the NEW-clause arrays it privatized fully or partially.
    /// A partially privatized array is listed with the grid dims its
    /// private copies span.
    void emitThreadprivate() {
        std::set<std::string> privScalars;
        for (const auto& [defId, d] : low_.decisions().scalars()) {
            if (d.kind == ScalarMapKind::Replicated) continue;
            const SsaDef& def = low_.ssa().defs()[static_cast<size_t>(defId)];
            if (def.sym != kNoSymbol) privScalars.insert(prog_.sym(def.sym).name);
        }
        std::set<std::string> privArrays;
        for (const ArrayPrivDecision& d : low_.decisions().arrays()) {
            if (d.kind == ArrayPrivDecision::Kind::Replicated) continue;
            std::string entry = prog_.sym(d.array).name;
            if (d.kind == ArrayPrivDecision::Kind::Partial) {
                entry += " /partial:";
                for (size_t g = 0; g < d.privatizedGrid.size(); ++g)
                    if (d.privatizedGrid[g] != 0) {
                        entry += 'g';
                        entry += std::to_string(g);
                    }
                entry += "/";
            }
            privArrays.insert(std::move(entry));
        }
        if (privScalars.empty() && privArrays.empty()) return;
        os_ << "!$omp threadprivate(";
        bool first = true;
        for (const auto& n : privScalars) {
            os_ << (first ? "" : ", ") << n;
            first = false;
        }
        for (const auto& n : privArrays) {
            os_ << (first ? "" : ", ") << n;
            first = false;
        }
        os_ << ")\n";
    }

    void emitOp(const CommOp* op, int indent) {
        pad(indent);
        if (op->isReductionCombine) {
            os_ << "! sync: combine " << printExpr(prog_, op->ref)
                << " via combiner tree across grid dims {";
            for (size_t i = 0; i < op->combineGridDims.size(); ++i)
                os_ << (i ? "," : "") << op->combineGridDims[i];
            os_ << "}\n";
            return;
        }
        os_ << "! sync: barrier; read " << printExpr(prog_, op->ref)
            << " from shared (" << commPatternName(op->req.overall)
            << ", epoch at level " << op->placementLevel << ")\n";
    }

    void guardComment(const Stmt* s) {
        const StmtExec& ex = low_.execOf(s);
        switch (ex.guard) {
            case StmtExec::Guard::All:
                os_ << "   ! on every thread";
                break;
            case StmtExec::Guard::OwnerOf:
                os_ << "   ! my schedule chunk: owner of "
                    << (ex.guardRef != nullptr ? printExpr(prog_, ex.guardRef)
                                               : std::string("<target>"));
                break;
            case StmtExec::Guard::Union:
                os_ << "   ! with the iteration's executing threads";
                break;
        }
    }

    void emitBlock(const std::vector<Stmt*>& block, int indent) {
        for (const Stmt* s : block) emitStmt(s, indent);
    }

    void emitStmt(const Stmt* s, int indent) {
        switch (s->kind) {
            case StmtKind::Assign:
                pad(indent);
                os_ << printExpr(prog_, s->lhs) << " = "
                    << printExpr(prog_, s->rhs);
                guardComment(s);
                os_ << "\n";
                break;
            case StmtKind::If:
                pad(indent);
                os_ << "if (" << printExpr(prog_, s->cond) << ") then";
                guardComment(s);
                os_ << "\n";
                emitBlock(s->thenBody, indent + 2);
                if (!s->elseBody.empty()) {
                    pad(indent);
                    os_ << "else\n";
                    emitBlock(s->elseBody, indent + 2);
                }
                pad(indent);
                os_ << "end if\n";
                break;
            case StmtKind::Do: {
                const ShrinkInfo shrink = analyzeShrink(low_, s);
                pad(indent);
                if (shrink.shrinkable) {
                    os_ << "!$omp do schedule(static)   ! chunked on grid dim "
                        << shrink.gridDim << "\n";
                    pad(indent);
                }
                os_ << "do " << prog_.sym(s->loopVar).name << " = "
                    << printExpr(prog_, s->lb) << ", "
                    << printExpr(prog_, s->ub);
                if (s->step != nullptr) os_ << ", " << printExpr(prog_, s->step);
                os_ << "\n";
                auto it = opsByLoop_.find(s);
                if (it != opsByLoop_.end())
                    for (const CommOp* op : it->second) emitOp(op, indent + 2);
                emitBlock(s->body, indent + 2);
                pad(indent);
                os_ << "end do\n";
                if (shrink.shrinkable) {
                    pad(indent);
                    os_ << "!$omp end do\n";
                }
                break;
            }
            case StmtKind::Goto:
                pad(indent);
                os_ << "go to " << s->gotoTarget;
                guardComment(s);
                os_ << "\n";
                break;
            case StmtKind::Continue:
                pad(indent);
                if (s->label >= 0) os_ << s->label << " ";
                os_ << "continue\n";
                break;
        }
    }

    void pad(int indent) { os_ << std::string(static_cast<size_t>(indent), ' '); }

    const SpmdLowering& low_;
    const Program& prog_;
    std::ostringstream os_;
    std::vector<const CommOp*> topOps_;
    std::unordered_map<const Stmt*, std::vector<const CommOp*>> opsByLoop_;
};

/// Shared-memory (OpenMP-style) backend: one SMP node with the SP2's
/// per-CPU flop rate, so comparing it against MessagePassingTarget
/// isolates the communication architecture. Lowering structure is
/// shared with mp (Target::lower); what changes is the pricing — no
/// transfer phase, no per-message α, costs dominated by barriers,
/// combiner trees, coherence reads and false sharing (ShmCostModel) —
/// and the emitted idiom (threadprivate copies, combiner trees).
class SharedMemoryTarget final : public Target {
public:
    [[nodiscard]] TargetKind kind() const override {
        return TargetKind::SharedMemory;
    }
    [[nodiscard]] const char* displayName() const override {
        return "shared memory (OpenMP-style SMP)";
    }

    [[nodiscard]] MappingCostHooks mappingHooks(
        const TargetConfig& config) const override {
        const ShmCostModel sm = config.shmModel;
        MappingCostHooks hooks;
        // A fixed-owner element reaching its consumer each iteration is
        // a barrier plus one line ping-ponging between the pair.
        hooks.elementMessage = [sm](double bytes) {
            return sm.barrier() + sm.sharedRead(bytes) +
                   sm.falseSharing(bytes, 2);
        };
        hooks.reduceCombine = [sm](int procs, double bytes) {
            (void)bytes;  // the combiner tree moves one line per stage
            return sm.combine(procs);
        };
        // Replication's "broadcast" is every thread pulling the value's
        // line: contended read plus the sub-line sharing penalty.
        hooks.broadcast = [sm](int procs, double bytes) {
            if (procs <= 1) return 0.0;
            return sm.barrier() + sm.sharedRead(bytes, procs) +
                   sm.falseSharing(bytes, procs);
        };
        return hooks;
    }

    [[nodiscard]] CostBreakdown predictCost(
        const SpmdLowering& low, const TargetConfig& config) const override {
        CostEvaluator eval(low, config.costModel, &config.shmModel);
        return eval.evaluate();
    }

    [[nodiscard]] DetailedCost predictDetailed(
        const SpmdLowering& low, const TargetConfig& config) const override {
        CostEvaluator eval(low, config.costModel, &config.shmModel);
        return eval.evaluateDetailed();
    }

    [[nodiscard]] CostReport costReport(
        const SpmdLowering& low, const TargetConfig& config) const override {
        return buildCostReport(low, config.costModel, &config.shmModel);
    }

    [[nodiscard]] std::string emitText(
        const SpmdLowering& low) const override {
        return ShmEmitter(low).run();
    }

    [[nodiscard]] obs::Json describe(
        const TargetConfig& config) const override {
        const ShmCostModel& sm = config.shmModel;
        obs::Json j = obs::Json::object();
        j.set("kind", name());
        j.set("display", displayName());
        j.set("barrier_sec", sm.barrierSec);
        j.set("combine_stage_sec", sm.combineStageSec);
        j.set("line_sec", sm.lineSec);
        j.set("shared_bw_sec_per_byte", sm.sharedBwSecPerByte);
        j.set("cache_line_bytes", sm.cacheLineBytes);
        j.set("flop_sec", config.costModel.flopSec);
        j.set("elem_bytes", config.costModel.elemBytes);
        return j;
    }
};

}  // namespace

const Target& sharedMemoryTarget() {
    static const SharedMemoryTarget t;
    return t;
}

}  // namespace target_detail
}  // namespace phpf
