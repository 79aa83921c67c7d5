#pragma once

#include <unordered_map>
#include <vector>

#include "ir/program.h"

namespace phpf {

/// One entry of a basic block. Besides real statements, loop-index
/// initialization and increment are modelled as explicit pseudo-defs so
/// SSA and induction analysis treat loop indices like ordinary scalars.
struct CfgItem {
    enum class Kind : std::uint8_t { Statement, LoopInit, LoopIncr };
    Kind kind = Kind::Statement;
    Stmt* stmt = nullptr;  ///< the statement, or the Do for Init/Incr
};

struct BasicBlock {
    int id = -1;
    std::vector<CfgItem> items;
    std::vector<int> succs;
    std::vector<int> preds;
    /// For loop headers: the Do statement this block is the header of.
    Stmt* headerOf = nullptr;
    /// Innermost loop whose body contains this block (null at top level).
    /// The header/latch/exit bookkeeping below uses this.
    Stmt* enclosingLoop = nullptr;
};

/// Control flow graph over the structured IR plus GOTO edges. Layout per
/// Do loop: preheader item (LoopInit) in the incoming block, a dedicated
/// header block (phi site, loop test), body blocks, a latch block ending
/// with LoopIncr and a back edge to the header, and an exit block.
class Cfg {
public:
    explicit Cfg(Program& p);

    [[nodiscard]] const std::vector<BasicBlock>& blocks() const { return blocks_; }
    [[nodiscard]] int entry() const { return entry_; }
    [[nodiscard]] int exit() const { return exit_; }
    [[nodiscard]] int blockCount() const { return static_cast<int>(blocks_.size()); }
    [[nodiscard]] const BasicBlock& block(int id) const {
        return blocks_[static_cast<size_t>(id)];
    }

    /// Block containing statement `s` (its item), -1 if unreachable.
    [[nodiscard]] int blockOfStmt(const Stmt* s) const;
    /// Header block id of loop `doStmt`.
    [[nodiscard]] int headerOf(const Stmt* doStmt) const;
    /// Latch block id (the LoopIncr block) of loop `doStmt`.
    [[nodiscard]] int latchOf(const Stmt* doStmt) const;
    /// True if `bb` lies inside loop `doStmt` (header and latch count as
    /// inside).
    [[nodiscard]] bool blockInsideLoop(int bb, const Stmt* doStmt) const;

    /// Reverse post-order from the entry (every reachable block).
    [[nodiscard]] std::vector<int> reversePostOrder() const;

private:
    int newBlock(Stmt* enclosingLoop);
    void addEdge(int from, int to);
    /// Builds `stmts` starting in block `cur`; returns the block where
    /// control continues.
    int buildSeq(const std::vector<Stmt*>& stmts, int cur, Stmt* enclosingLoop);

    Program& prog_;
    std::vector<BasicBlock> blocks_;
    int entry_ = -1;
    int exit_ = -1;
    std::unordered_map<const Stmt*, int> stmtBlock_;
    std::unordered_map<const Stmt*, int> loopHeader_;
    std::unordered_map<const Stmt*, int> loopLatch_;
    std::unordered_map<int, int> labelBlock_;
    std::vector<std::pair<int, int>> pendingGotos_;  // (from block, label)
};

}  // namespace phpf
