#pragma once

#include <functional>

#include "runtime/store.h"

namespace phpf {

/// Sequential reference interpreter of the mini-HPF IR. It defines the
/// semantics every parallel execution must reproduce; the SPMD
/// simulator's results are compared against it bit for bit.
///
/// GOTO is supported for forward jumps to labels in the current or an
/// enclosing block (the paper's Fig. 7 pattern).
class Interpreter {
public:
    explicit Interpreter(const Program& p);

    /// Initialize storage before running (e.g. seed input arrays).
    [[nodiscard]] Store& store() { return store_; }
    [[nodiscard]] const Store& store() const { return store_; }

    void run();

    /// Execute a single statement (used by the SPMD simulator's oracle).
    void execStmt(const Stmt* s);
    [[nodiscard]] double eval(const Expr* e) const;
    [[nodiscard]] std::int64_t evalIndex(const Expr* e) const {
        return static_cast<std::int64_t>(eval(e));
    }
    [[nodiscard]] std::int64_t flatIndexOf(const Expr* arrayRef) const;

    [[nodiscard]] std::int64_t statementsExecuted() const { return executed_; }
    /// Count one statement executed outside execStmt (the SPMD
    /// simulator's bytecode engine applies Assign effects directly but
    /// must keep the oracle's accounting identical to execStmt).
    void noteStatementExecuted() { ++executed_; }

    /// Convenience accessors.
    [[nodiscard]] double scalar(const std::string& name) const;
    [[nodiscard]] double element(const std::string& name,
                                 std::vector<std::int64_t> idx) const;
    void setScalar(const std::string& name, double v);
    void setElement(const std::string& name, std::vector<std::int64_t> idx,
                    double v);

private:
    struct GotoSignal {
        int label;
    };
    void execBlock(const std::vector<Stmt*>& block);

    const Program& prog_;
    Store store_;
    std::int64_t executed_ = 0;
};

}  // namespace phpf
