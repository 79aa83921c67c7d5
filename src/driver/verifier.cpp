#include "driver/verifier.h"

#include <sstream>

#include "ir/printer.h"

namespace phpf {

std::vector<std::string> verifyCompilation(const Compilation& c) {
    std::vector<std::string> issues;
    const Program& p = c.program();
    const MappingDecisions& dec = c.mappingPass().decisions();

    auto complain = [&](const std::string& msg) { issues.push_back(msg); };

    // 1. Every statement lowered; OwnerOf implies a constrained executor.
    p.forEachStmt([&](const Stmt* s) {
        // Appended, not "s" + std::to_string(...): GCC 12's -Wrestrict
        // misfires on that operator+ once inlined here.
        std::string tag = "s";
        tag += std::to_string(s->id);
        try {
            const StmtExec& ex = c.lowering().execOf(s);
            if (ex.guard == StmtExec::Guard::OwnerOf &&
                !ex.execDesc.anyConstrained())
                complain(tag + ": OwnerOf guard with unconstrained executor");
        } catch (const InternalError&) {
            complain(tag + ": statement not lowered");
        }
    });

    // 2/3. Scalar decisions.
    for (const auto& [defId, d] : dec.scalars()) {
        const SsaDef& def = c.ssa().def(defId);
        if (d.kind == ScalarMapKind::Aligned) {
            if (d.alignRef == nullptr ||
                d.alignRef->kind != ExprKind::ArrayRef) {
                complain(p.sym(def.sym).name +
                         ": aligned decision without array target");
                continue;
            }
            if (d.privLoop != nullptr &&
                d.alignLevel > d.privLoop->loopNestingLevel() &&
                !d.isReductionResult)
                complain(p.sym(def.sym).name +
                         ": AlignLevel exceeds privatization level");
        }
    }
    // Consistency across reaching defs of every use.
    p.forEachStmt([&](const Stmt* s) {
        Program::forEachExpr(s, [&](Expr* e) {
            if (e->kind != ExprKind::VarRef) return;
            if (s->kind == StmtKind::Assign && e == s->lhs) return;
            const auto rds = c.ssa().reachingDefs(e);
            if (rds.size() < 2) return;
            const ScalarMapDecision* first = dec.forDef(rds[0]);
            for (size_t i = 1; i < rds.size(); ++i) {
                const ScalarMapDecision* other = dec.forDef(rds[i]);
                const auto kindOf = [](const ScalarMapDecision* x) {
                    return x == nullptr ? ScalarMapKind::Replicated : x->kind;
                };
                const auto refOf = [](const ScalarMapDecision* x) {
                    return x == nullptr ? nullptr : x->alignRef;
                };
                if (kindOf(first) != kindOf(other) ||
                    refOf(first) != refOf(other)) {
                    complain(p.sym(e->sym).name +
                             ": inconsistent mapping across reaching defs");
                    return;
                }
            }
        });
    });

    // 4. Array privatization maps.
    for (const ArrayPrivDecision& a : dec.arrays()) {
        if (a.kind != ArrayPrivDecision::Kind::Partial) continue;
        const int rank = c.dataMapping().grid().rank();
        for (const auto& dim : a.mapInLoop.dims) {
            if (dim.partitioned() && (dim.gridDim < 0 || dim.gridDim >= rank))
                complain(p.sym(a.array).name + ": partial map names bad grid dim");
        }
        for (int g = 0; g < rank; ++g) {
            if (a.privatizedGrid[static_cast<size_t>(g)] &&
                !a.mapInLoop.replicatedGrid[static_cast<size_t>(g)])
                complain(p.sym(a.array).name +
                         ": privatized dim not replicated in in-loop map");
        }
    }

    // 5. Communication ops.
    for (const CommOp& op : c.lowering().commOps()) {
        const int stmtLevel = op.atStmt->level;
        if (op.placementLevel > stmtLevel)
            complain("comm op " + std::to_string(op.id) +
                     " placed deeper than its statement");
        if (!op.isReductionCombine) {
            bool found = false;
            Program::forEachExpr(op.atStmt, [&](Expr* e) {
                if (e == op.ref) found = true;
            });
            if (!found)
                complain("comm op " + std::to_string(op.id) +
                         " references a foreign expression");
        }
    }
    return issues;
}

}  // namespace phpf
