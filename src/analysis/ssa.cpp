#include "analysis/ssa.h"

#include <algorithm>
#include <functional>

#include "support/diagnostics.h"

namespace phpf {

SsaForm::SsaForm(Program& p, const Cfg& cfg, const Dominators& dom)
    : prog_(p), cfg_(cfg) {
    blockPhis_.assign(static_cast<size_t>(cfg.blockCount()), {});
    versionCounter_.assign(p.symbols.size(), 0);

    insertPhis(dom);

    // Entry versions for every scalar, pushed as the initial stack state.
    std::vector<std::vector<int>> stacks(p.symbols.size());
    for (const auto& s : p.symbols) {
        if (s.isArray()) continue;
        const int d = newDef(s.id, SsaDef::Kind::Entry, nullptr, cfg.entry());
        stacks[static_cast<size_t>(s.id)].push_back(d);
    }
    rename(cfg.entry(), dom, stacks);
    prune();
}

int SsaForm::newDef(SymbolId sym, SsaDef::Kind kind, Stmt* stmt, int block) {
    SsaDef d;
    d.id = static_cast<int>(defs_.size());
    d.sym = sym;
    d.version = versionCounter_[static_cast<size_t>(sym)]++;
    d.kind = kind;
    d.stmt = stmt;
    d.block = block;
    defs_.push_back(std::move(d));
    return defs_.back().id;
}

void SsaForm::insertPhis(const Dominators& dom) {
    // Definition sites per scalar symbol.
    std::vector<std::vector<int>> defSites(prog_.symbols.size());
    for (const auto& s : prog_.symbols)
        if (!s.isArray()) defSites[static_cast<size_t>(s.id)].push_back(cfg_.entry());
    for (const auto& bb : cfg_.blocks()) {
        for (const auto& item : bb.items) {
            switch (item.kind) {
                case CfgItem::Kind::Statement:
                    if (item.stmt->kind == StmtKind::Assign &&
                        item.stmt->lhs->kind == ExprKind::VarRef)
                        defSites[static_cast<size_t>(item.stmt->lhs->sym)]
                            .push_back(bb.id);
                    break;
                case CfgItem::Kind::LoopInit:
                case CfgItem::Kind::LoopIncr:
                    defSites[static_cast<size_t>(item.stmt->loopVar)].push_back(
                        bb.id);
                    break;
            }
        }
    }

    // Iterated dominance frontier per symbol (minimal SSA; pruned later).
    for (const auto& s : prog_.symbols) {
        if (s.isArray()) continue;
        std::vector<int> work = defSites[static_cast<size_t>(s.id)];
        std::vector<char> hasPhi(static_cast<size_t>(cfg_.blockCount()), 0);
        std::vector<char> inWork(static_cast<size_t>(cfg_.blockCount()), 0);
        for (int b : work) inWork[static_cast<size_t>(b)] = 1;
        while (!work.empty()) {
            const int b = work.back();
            work.pop_back();
            for (int f : dom.frontier(b)) {
                if (hasPhi[static_cast<size_t>(f)]) continue;
                hasPhi[static_cast<size_t>(f)] = 1;
                const int d = newDef(s.id, SsaDef::Kind::Phi, nullptr, f);
                defs_[static_cast<size_t>(d)].operands.assign(
                    cfg_.block(f).preds.size(), -1);
                blockPhis_[static_cast<size_t>(f)].push_back(d);
                if (!inWork[static_cast<size_t>(f)]) {
                    inWork[static_cast<size_t>(f)] = 1;
                    work.push_back(f);
                }
            }
        }
    }
}

void SsaForm::renameUsesIn(Expr* e, std::vector<std::vector<int>>& stacks) {
    if (e == nullptr) return;
    Program::walkExpr(e, [&](Expr* node) {
        if (node->kind != ExprKind::VarRef) return;
        auto& stack = stacks[static_cast<size_t>(node->sym)];
        PHPF_ASSERT(!stack.empty(), "use of array symbol as scalar?");
        const int d = stack.back();
        useDef_[node->id] = d;
        defs_[static_cast<size_t>(d)].uses.push_back(node);
    });
}

void SsaForm::rename(int block, const Dominators& dom,
                     std::vector<std::vector<int>>& stacks) {
    std::vector<int> pushed;  // defs pushed in this block, for pop on exit

    for (int phiId : blockPhis_[static_cast<size_t>(block)]) {
        stacks[static_cast<size_t>(defs_[static_cast<size_t>(phiId)].sym)]
            .push_back(phiId);
        pushed.push_back(phiId);
    }

    for (const auto& item : cfg_.block(block).items) {
        switch (item.kind) {
            case CfgItem::Kind::Statement: {
                Stmt* s = item.stmt;
                if (s->kind == StmtKind::Assign) {
                    renameUsesIn(s->rhs, stacks);
                    if (s->lhs->kind == ExprKind::ArrayRef) {
                        // Subscripts of the stored-to element are uses.
                        for (Expr* sub : s->lhs->args)
                            renameUsesIn(sub, stacks);
                    } else {
                        const int d =
                            newDef(s->lhs->sym, SsaDef::Kind::Assign, s, block);
                        assignDef_[s] = d;
                        stacks[static_cast<size_t>(s->lhs->sym)].push_back(d);
                        pushed.push_back(d);
                    }
                } else if (s->kind == StmtKind::If) {
                    renameUsesIn(s->cond, stacks);
                }
                break;
            }
            case CfgItem::Kind::LoopInit: {
                Stmt* s = item.stmt;
                renameUsesIn(s->lb, stacks);
                renameUsesIn(s->ub, stacks);
                renameUsesIn(s->step, stacks);
                const int d = newDef(s->loopVar, SsaDef::Kind::LoopInit, s, block);
                loopInitDef_[s] = d;
                stacks[static_cast<size_t>(s->loopVar)].push_back(d);
                pushed.push_back(d);
                break;
            }
            case CfgItem::Kind::LoopIncr: {
                Stmt* s = item.stmt;
                const int prev = stacks[static_cast<size_t>(s->loopVar)].back();
                const int d = newDef(s->loopVar, SsaDef::Kind::LoopIncr, s, block);
                defs_[static_cast<size_t>(d)].incrSource = prev;
                loopIncrDef_[s] = d;
                stacks[static_cast<size_t>(s->loopVar)].push_back(d);
                pushed.push_back(d);
                break;
            }
        }
    }

    // Fill phi operands of successors.
    for (int succ : cfg_.block(block).succs) {
        const auto& preds = cfg_.block(succ).preds;
        const auto predIt = std::find(preds.begin(), preds.end(), block);
        const int predIdx = static_cast<int>(predIt - preds.begin());
        for (int phiId : blockPhis_[static_cast<size_t>(succ)]) {
            SsaDef& phi = defs_[static_cast<size_t>(phiId)];
            const auto& stack = stacks[static_cast<size_t>(phi.sym)];
            phi.operands[static_cast<size_t>(predIdx)] =
                stack.empty() ? -1 : stack.back();
        }
    }

    for (int child : dom.children(block)) rename(child, dom, stacks);

    for (auto it = pushed.rbegin(); it != pushed.rend(); ++it) {
        auto& stack = stacks[static_cast<size_t>(defs_[static_cast<size_t>(*it)].sym)];
        PHPF_ASSERT(stack.back() == *it, "rename stack corruption");
        stack.pop_back();
    }
}

void SsaForm::prune() {
    // A def is live if it has a real use or feeds a live phi. Compute the
    // live set, then record phiUses only for live phis.
    std::vector<char> live(defs_.size(), 0);
    std::vector<int> work;
    for (const auto& d : defs_)
        if (!d.uses.empty()) {
            live[static_cast<size_t>(d.id)] = 1;
            work.push_back(d.id);
        }
    while (!work.empty()) {
        const int id = work.back();
        work.pop_back();
        const SsaDef& d = defs_[static_cast<size_t>(id)];
        auto markLive = [&](int op) {
            if (op >= 0 && !live[static_cast<size_t>(op)]) {
                live[static_cast<size_t>(op)] = 1;
                work.push_back(op);
            }
        };
        if (d.isPhi()) {
            for (int op : d.operands) markLive(op);
        } else if (d.kind == SsaDef::Kind::LoopIncr) {
            markLive(d.incrSource);
        }
    }
    for (auto& d : defs_) {
        if (!d.isPhi() || !live[static_cast<size_t>(d.id)]) continue;
        for (size_t i = 0; i < d.operands.size(); ++i) {
            const int op = d.operands[i];
            if (op >= 0)
                defs_[static_cast<size_t>(op)].phiUses.emplace_back(
                    d.id, static_cast<int>(i));
        }
    }
}

int SsaForm::defIdOfUse(const Expr* e) const {
    auto it = useDef_.find(e->id);
    return it == useDef_.end() ? -1 : it->second;
}

int SsaForm::defIdOfAssign(const Stmt* s) const {
    auto it = assignDef_.find(s);
    return it == assignDef_.end() ? -1 : it->second;
}

int SsaForm::defIdOfLoopInit(const Stmt* s) const {
    auto it = loopInitDef_.find(s);
    return it == loopInitDef_.end() ? -1 : it->second;
}

int SsaForm::defIdOfLoopIncr(const Stmt* s) const {
    auto it = loopIncrDef_.find(s);
    return it == loopIncrDef_.end() ? -1 : it->second;
}

UseClosure SsaForm::reachedUses(int defId) const {
    UseClosure out;
    std::vector<char> seen(defs_.size(), 0);
    std::function<void(int)> visit = [&](int id) {
        if (seen[static_cast<size_t>(id)]) return;
        seen[static_cast<size_t>(id)] = 1;
        const SsaDef& d = defs_[static_cast<size_t>(id)];
        for (Expr* u : d.uses) out.uses.push_back(u);
        for (auto [phiId, opIdx] : d.phiUses) {
            const SsaDef& phi = defs_[static_cast<size_t>(phiId)];
            out.phiBlocks.push_back(phi.block);
            const Stmt* header = cfg_.block(phi.block).headerOf;
            if (header != nullptr) {
                // Flowing into a loop-header phi via the back edge means the
                // value crosses that loop's iterations.
                const int pred =
                    cfg_.block(phi.block).preds[static_cast<size_t>(opIdx)];
                if (pred == cfg_.latchOf(header)) out.carriedByLoops.insert(header);
            }
            visit(phiId);
        }
    };
    visit(defId);
    return out;
}

std::vector<int> SsaForm::reachingDefs(const Expr* e) const {
    std::vector<int> out;
    const int start = defIdOfUse(e);
    if (start < 0) return out;
    std::vector<char> seen(defs_.size(), 0);
    std::function<void(int)> visit = [&](int id) {
        if (id < 0 || seen[static_cast<size_t>(id)]) return;
        seen[static_cast<size_t>(id)] = 1;
        const SsaDef& d = defs_[static_cast<size_t>(id)];
        if (d.isPhi()) {
            for (int op : d.operands) visit(op);
        } else {
            out.push_back(id);
        }
    };
    visit(start);
    return out;
}

bool SsaForm::isUniqueDef(int defId) const {
    const UseClosure closure = reachedUses(defId);
    for (const Expr* u : closure.uses) {
        const std::vector<int> rds = reachingDefs(u);
        if (rds.size() != 1 || rds[0] != defId) return false;
    }
    return true;
}

}  // namespace phpf
