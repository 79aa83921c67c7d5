#include "analysis/cfg.h"

#include <algorithm>
#include <functional>

#include "support/diagnostics.h"

namespace phpf {

Cfg::Cfg(Program& p) : prog_(p) {
    entry_ = newBlock(nullptr);
    const int last = buildSeq(p.top, entry_, nullptr);
    exit_ = newBlock(nullptr);
    addEdge(last, exit_);
    // Resolve forward/backward GOTO edges now that every label has a block.
    for (auto [from, label] : pendingGotos_) {
        Stmt* target = prog_.findLabel(label);
        PHPF_ASSERT(target != nullptr, "goto to unknown label");
        auto it = stmtBlock_.find(target);
        PHPF_ASSERT(it != stmtBlock_.end(), "label target not in CFG");
        addEdge(from, it->second);
    }
}

int Cfg::newBlock(Stmt* enclosingLoop) {
    BasicBlock bb;
    bb.id = static_cast<int>(blocks_.size());
    bb.enclosingLoop = enclosingLoop;
    blocks_.push_back(std::move(bb));
    return blocks_.back().id;
}

void Cfg::addEdge(int from, int to) {
    blocks_[static_cast<size_t>(from)].succs.push_back(to);
    blocks_[static_cast<size_t>(to)].preds.push_back(from);
}

int Cfg::buildSeq(const std::vector<Stmt*>& stmts, int cur, Stmt* enclosingLoop) {
    for (Stmt* s : stmts) {
        // A labelled statement starts a fresh block so gotos can land on it.
        if (s->label >= 0) {
            const int lb = newBlock(enclosingLoop);
            addEdge(cur, lb);
            cur = lb;
            labelBlock_[s->label] = lb;
        }
        switch (s->kind) {
            case StmtKind::Assign:
            case StmtKind::Continue:
                blocks_[static_cast<size_t>(cur)].items.push_back(
                    {CfgItem::Kind::Statement, s});
                stmtBlock_[s] = cur;
                break;
            case StmtKind::Goto: {
                blocks_[static_cast<size_t>(cur)].items.push_back(
                    {CfgItem::Kind::Statement, s});
                stmtBlock_[s] = cur;
                pendingGotos_.emplace_back(cur, s->gotoTarget);
                // Code after an unconditional goto in the same sequence is
                // unreachable; keep building into a block with no entry edge.
                cur = newBlock(enclosingLoop);
                break;
            }
            case StmtKind::If: {
                blocks_[static_cast<size_t>(cur)].items.push_back(
                    {CfgItem::Kind::Statement, s});
                stmtBlock_[s] = cur;
                const int thenEntry = newBlock(enclosingLoop);
                addEdge(cur, thenEntry);
                const int thenEnd = buildSeq(s->thenBody, thenEntry, enclosingLoop);
                const int merge = newBlock(enclosingLoop);
                addEdge(thenEnd, merge);
                if (s->elseBody.empty()) {
                    addEdge(cur, merge);
                } else {
                    const int elseEntry = newBlock(enclosingLoop);
                    addEdge(cur, elseEntry);
                    const int elseEnd =
                        buildSeq(s->elseBody, elseEntry, enclosingLoop);
                    addEdge(elseEnd, merge);
                }
                cur = merge;
                break;
            }
            case StmtKind::Do: {
                // LoopInit goes in the current (preheader) block.
                blocks_[static_cast<size_t>(cur)].items.push_back(
                    {CfgItem::Kind::LoopInit, s});
                stmtBlock_[s] = cur;
                const int header = newBlock(s);
                blocks_[static_cast<size_t>(header)].headerOf = s;
                loopHeader_[s] = header;
                addEdge(cur, header);
                const int bodyEntry = newBlock(s);
                addEdge(header, bodyEntry);
                const int bodyEnd = buildSeq(s->body, bodyEntry, s);
                const int latch = newBlock(s);
                blocks_[static_cast<size_t>(latch)].items.push_back(
                    {CfgItem::Kind::LoopIncr, s});
                loopLatch_[s] = latch;
                addEdge(bodyEnd, latch);
                addEdge(latch, header);  // back edge
                const int exitBlk = newBlock(enclosingLoop);
                addEdge(header, exitBlk);
                cur = exitBlk;
                break;
            }
        }
    }
    return cur;
}

int Cfg::blockOfStmt(const Stmt* s) const {
    auto it = stmtBlock_.find(s);
    return it == stmtBlock_.end() ? -1 : it->second;
}

int Cfg::headerOf(const Stmt* doStmt) const {
    auto it = loopHeader_.find(doStmt);
    PHPF_ASSERT(it != loopHeader_.end(), "not a loop in this CFG");
    return it->second;
}

int Cfg::latchOf(const Stmt* doStmt) const {
    auto it = loopLatch_.find(doStmt);
    PHPF_ASSERT(it != loopLatch_.end(), "not a loop in this CFG");
    return it->second;
}

bool Cfg::blockInsideLoop(int bb, const Stmt* doStmt) const {
    const BasicBlock& b = blocks_[static_cast<size_t>(bb)];
    if (b.headerOf == doStmt) return true;
    for (const Stmt* l = b.enclosingLoop; l != nullptr;) {
        if (l == doStmt) return true;
        // Hop to the next enclosing loop of l.
        const Stmt* p = l->parent;
        while (p != nullptr && p->kind != StmtKind::Do) p = p->parent;
        l = p;
    }
    return false;
}

std::vector<int> Cfg::reversePostOrder() const {
    std::vector<int> order;
    std::vector<char> seen(blocks_.size(), 0);
    std::function<void(int)> dfs = [&](int b) {
        seen[static_cast<size_t>(b)] = 1;
        for (int s : blocks_[static_cast<size_t>(b)].succs)
            if (!seen[static_cast<size_t>(s)]) dfs(s);
        order.push_back(b);
    };
    dfs(entry_);
    std::reverse(order.begin(), order.end());
    return order;
}

}  // namespace phpf
