#include "analysis/privatizable.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace phpf {

bool isPrivatizableAt(const SsaForm& ssa, int defId, const Stmt* loop) {
    PHPF_ASSERT(loop != nullptr && loop->kind == StmtKind::Do,
                "privatization target must be a loop");
    const SsaDef& d = ssa.def(defId);
    if (d.kind != SsaDef::Kind::Assign) return false;
    if (!Program::isInsideLoop(d.stmt, loop)) return false;

    const UseClosure closure = ssa.reachedUses(defId);
    // Loop-carried w.r.t. this loop: value feeds the next iteration.
    if (closure.carriedByLoops.count(loop) > 0) return false;
    // All consumers must stay inside the loop.
    for (const Expr* u : closure.uses)
        if (!Program::isInsideLoop(u->parentStmt, loop)) return false;
    // No merge outside the loop on any def-to-use path (value escaping
    // through a phi at an outer level means it is live past an iteration).
    const Cfg& cfg = ssa.cfg();
    for (int phiBlock : closure.phiBlocks)
        if (!cfg.blockInsideLoop(phiBlock, loop)) return false;
    return true;
}

const Stmt* outermostPrivatizationLoop(const SsaForm& ssa, int defId) {
    const SsaDef& d = ssa.def(defId);
    if (d.kind != SsaDef::Kind::Assign) return nullptr;
    const auto loops = ssa.program().enclosingLoops(d.stmt);
    for (const Stmt* l : loops)  // outermost first
        if (isPrivatizableAt(ssa, defId, l)) return l;
    return nullptr;
}

bool arrayPrivatizableAt(const Stmt* loop, SymbolId array) {
    if (loop == nullptr || !loop->independent) return false;
    return std::find(loop->newVars.begin(), loop->newVars.end(), array) !=
           loop->newVars.end();
}

}  // namespace phpf
