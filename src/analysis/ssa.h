#pragma once

#include <set>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dominators.h"

namespace phpf {

/// One SSA version of a scalar variable.
struct SsaDef {
    int id = -1;
    SymbolId sym = kNoSymbol;
    int version = 0;

    enum class Kind : std::uint8_t {
        Entry,     ///< value on entry (uninitialized / incoming)
        Assign,    ///< lhs of an Assign statement
        LoopInit,  ///< loop index at DO entry
        LoopIncr,  ///< loop index after increment
        Phi,       ///< merge point
    };
    Kind kind = Kind::Entry;
    Stmt* stmt = nullptr;  ///< Assign stmt, or the Do for LoopInit/Incr
    int block = -1;

    /// Phi only: operand def ids, aligned with block's pred list.
    std::vector<int> operands;
    /// For LoopIncr: the def consumed by the increment (previous version).
    int incrSource = -1;

    /// Real uses of this version (VarRef expressions).
    std::vector<Expr*> uses;
    /// Live phis consuming this version: (phi def id, operand index).
    std::vector<std::pair<int, int>> phiUses;

    [[nodiscard]] bool isPhi() const { return kind == Kind::Phi; }
};

/// What the reached-uses closure of a definition saw on its way to real
/// uses. Only paths that actually lead to a use contribute (the SSA is
/// pruned, so dead phis never appear).
struct UseClosure {
    std::vector<Expr*> uses;  ///< all transitively reached real uses
    /// Loops whose header phi the value flowed through — i.e. loops that
    /// carry this value across their iterations.
    std::set<const Stmt*> carriedByLoops;
    /// Blocks of every phi traversed (to test whether the value escapes
    /// a loop through a merge outside it).
    std::vector<int> phiBlocks;
};

/// Pruned SSA over the scalar variables of a Program. Arrays are not
/// renamed (the paper's compiler derives array privatizability from
/// directives, Section 3.1); their subscript expressions *are* scalar
/// uses and participate fully.
class SsaForm {
public:
    SsaForm(Program& p, const Cfg& cfg, const Dominators& dom);

    [[nodiscard]] const std::vector<SsaDef>& defs() const { return defs_; }
    [[nodiscard]] const SsaDef& def(int id) const {
        return defs_[static_cast<size_t>(id)];
    }
    /// Def id read by scalar use `e` (a VarRef), or -1.
    [[nodiscard]] int defIdOfUse(const Expr* e) const;
    /// Def created by Assign statement `s` (-1 if lhs is an array ref).
    [[nodiscard]] int defIdOfAssign(const Stmt* s) const;
    [[nodiscard]] int defIdOfLoopInit(const Stmt* doStmt) const;
    [[nodiscard]] int defIdOfLoopIncr(const Stmt* doStmt) const;

    /// Transitive closure def -> real uses, through live phis.
    [[nodiscard]] UseClosure reachedUses(int defId) const;
    /// Non-phi definitions that can reach use `e` (through phis).
    [[nodiscard]] std::vector<int> reachingDefs(const Expr* e) const;
    /// True if `defId` is the only reaching definition of every use it
    /// reaches (Fig. 3's IsUniqueDef).
    [[nodiscard]] bool isUniqueDef(int defId) const;

    [[nodiscard]] const Cfg& cfg() const { return cfg_; }
    [[nodiscard]] Program& program() const { return prog_; }

private:
    void insertPhis(const Dominators& dom);
    void rename(int block, const Dominators& dom,
                std::vector<std::vector<int>>& stacks);
    void renameUsesIn(Expr* e, std::vector<std::vector<int>>& stacks);
    void prune();
    int newDef(SymbolId sym, SsaDef::Kind kind, Stmt* stmt, int block);

    Program& prog_;
    const Cfg& cfg_;
    std::vector<SsaDef> defs_;
    std::vector<std::vector<int>> blockPhis_;  ///< per block: phi def ids
    std::unordered_map<int, int> useDef_;      ///< Expr id -> def id
    std::unordered_map<const Stmt*, int> assignDef_;
    std::unordered_map<const Stmt*, int> loopInitDef_;
    std::unordered_map<const Stmt*, int> loopIncrDef_;
    std::vector<int> versionCounter_;  ///< per symbol
};

}  // namespace phpf
