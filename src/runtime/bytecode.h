#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "runtime/interp.h"
#include "support/arena.h"

namespace phpf {

struct StmtExec;
struct RefDesc;

namespace bc {

/// Opcode set of the statement bytecode. Arithmetic matches the
/// tree-walking interpreter operation for operation (same libm calls,
/// same non-short-circuit And/Or), so a chunk evaluates bit-identically
/// to Interpreter::eval on the same inputs.
enum class Op : std::uint8_t {
    Const,  ///< a <- consts[b]
    Fetch,  ///< a <- value of slot b (engine-supplied load)
    Neg,    ///< a <- -r[b]
    Not,    ///< a <- r[b] != 0 ? 0 : 1
    Abs,    ///< a <- |r[b]|
    Sqrt,   ///< a <- sqrt(r[b])
    Exp,    ///< a <- exp(r[b])
    Add, Sub, Mul, Div, Pow,        ///< a <- r[b] op r[c]
    Lt, Le, Gt, Ge, Eq, Ne,         ///< a <- r[b] op r[c] ? 1 : 0
    And, Or,                        ///< non-short-circuit logicals
    Max, Min, Mod, Sign,            ///< binary intrinsics
};

/// One register instruction: a = dest, b/c = operand registers, or the
/// constant-pool / fetch-slot index for Const / Fetch.
struct Inst {
    Op op;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t c = 0;
};

/// Flat bytecode of one expression tree: postorder-linearized with
/// stack-discipline register allocation (operands evaluate left to
/// right, exactly the interpreter's recursion order, so fetch side
/// effects happen in the same sequence). The result lands in register 0.
struct Chunk {
    std::vector<Inst> code;
    std::vector<double> consts;
    int numRegs = 0;

    [[nodiscard]] bool empty() const { return code.empty(); }
};

/// One VarRef/ArrayRef the compiled expression reads in value position,
/// in depth-first order — the same order SpmdSimulator's interp engine
/// collects its fetchRefs, so either engine sees the identical fetch
/// sequence.
struct FetchSlot {
    const Expr* ref = nullptr;
    SymbolId sym = kNoSymbol;
    bool isArray = false;
};

/// An integer index expression strength-reduced to affine form
/// `base + sum(coeff_i * intval(sym_i))` over integer scalar symbols
/// (loop variables, induction scalars). The simulator binds it to its
/// state as an AddrForm, so an instance evaluates a few integer
/// multiply-adds instead of walking a subscript tree; anything
/// non-affine keeps the original tree as a fallback and evaluates
/// exactly like the interpreter.
struct IndexForm {
    struct Term {
        SymbolId sym;
        std::int64_t coeff;
    };

    bool affine = false;
    std::int64_t base = 0;
    std::vector<Term> terms;
    /// Non-affine fallback tree (subscript value), or for
    /// `flatFallback` the whole ArrayRef (flat element index).
    const Expr* fallback = nullptr;
    bool flatFallback = false;

    [[nodiscard]] bool present() const {
        return affine || fallback != nullptr;
    }
};

/// An IndexForm bound to the simulator's state: `base + sum(coeff *
/// iv[sym])` over the integer DO variables the simulator keeps in an
/// int64 iteration vector (indexed by SymbolId), plus `sum(coeff *
/// intval(scalar))` over the other integer scalars, read from the
/// oracle's store. An element address folds the symbol's Store offset
/// into the base; a non-affine form evaluates its tree and adds the
/// offset.
struct AddrForm {
    std::int64_t base = 0;
    std::vector<IndexForm::Term> iv;
    std::vector<IndexForm::Term> scalars;
    /// The subscript tree (the ArrayRef itself when `flat`): evaluated
    /// when the form is not affine, re-derived by Debug builds when it
    /// is.
    const Expr* tree = nullptr;
    bool flat = false;
    bool affine = true;
    std::int64_t offset = 0;

    /// True when the form reads nothing but the iteration vector.
    [[nodiscard]] bool ivOnly() const { return affine && scalars.empty(); }
    /// The coefficient of iteration-vector entry `sym`.
    [[nodiscard]] std::int64_t coeffOf(SymbolId sym) const {
        for (const IndexForm::Term& t : iv)
            if (t.sym == sym) return t.coeff;
        return 0;
    }
};

/// Bind `f` (an absent form reads as 0) at Store offset `offset`;
/// `isIv[sym]` marks the symbols the iteration vector holds.
[[nodiscard]] AddrForm bindAddr(const IndexForm& f, std::int64_t offset,
                                const std::vector<char>& isIv);

/// Evaluate `a` over iteration vector `iv` and the oracle's store.
/// Affine terms truncate each integer scalar individually — exact
/// whenever the scalars hold integral values, which the compiler
/// guarantees by folding only integer-typed symbols. Debug builds
/// re-derive an affine value through the interpreter's tree walk and
/// compare, so any folding bug trips the assertion.
[[nodiscard]] inline std::int64_t evalAddr(const AddrForm& a,
                                           const std::int64_t* iv,
                                           const Interpreter& oracle) {
    const auto tree = [&] {
        return a.flat ? oracle.flatIndexOf(a.tree) : oracle.evalIndex(a.tree);
    };
    if (!a.affine) return a.offset + tree();
    std::int64_t v = a.base;
    for (const IndexForm::Term& t : a.iv)
        v += t.coeff * iv[static_cast<size_t>(t.sym)];
    for (const IndexForm::Term& t : a.scalars)
        v += t.coeff * static_cast<std::int64_t>(oracle.store().get(t.sym));
    PHPF_DASSERT(a.tree == nullptr || v == a.offset + tree(),
                 "address form diverges from its subscript tree");
    return v;
}

/// Bounds check of every subscript of a statement's array refs, folded
/// per symbol: an affine subscript c*x + k with one integer scalar x
/// holds exactly when x lies in an interval, and the intervals of one
/// symbol intersect. A statement instance then checks each subscript
/// symbol once instead of each subscript, and not at all when x is a
/// loop variable whose enclosing loop bounds keep it inside the
/// interval. A subscript of any other shape (several symbols, a
/// non-affine tree, an out-of-bounds constant) sends every instance of
/// the statement to the caller's per-subscript check.
struct SubscriptCheck {
    struct Range {
        SymbolId sym;
        std::int64_t lo;
        std::int64_t hi;
    };
    std::vector<Range> ranges;
    bool perSubscript = false;

    /// True when the ranges prove every subscript in bounds on the
    /// oracle's current state.
    [[nodiscard]] bool passes(const Interpreter& oracle) const {
        if (perSubscript) return false;
        for (const Range& r : ranges) {
            const auto x = static_cast<std::int64_t>(oracle.store().get(r.sym));
            if (x < r.lo || x > r.hi) return false;
        }
        return true;
    }
};

/// Everything the bytecode engine precompiled for one statement.
struct StmtCode {
    Chunk value;                   ///< rhs (Assign) / cond (If)
    std::vector<FetchSlot> slots;  ///< Fetch operands, depth-first
    /// Per slot: flat element index of an ArrayRef slot (empty form for
    /// scalar slots).
    std::vector<IndexForm> slotIndex;
    /// Assign with ArrayRef lhs: flat element index of the store.
    IndexForm lhsIndex;
    /// Every subscript of the lhs and of the ArrayRef slots.
    SubscriptCheck subscripts;
    /// OwnerOf guards: subscript form per grid dimension of the
    /// executor descriptor (only Partitioned dims are present()).
    std::vector<IndexForm> execIndex;
    /// Union guards: one descriptor's forms per contributing source.
    std::vector<std::vector<IndexForm>> unionIndex;
};

/// Compile one Assign/If statement's guard subscripts, index
/// expressions, and value tree. `exec` / `unionSrcs` mirror the
/// simulator's StmtPlan; either may be null/empty (Do statements need
/// no code). Scratch IR lives in `arena`; the returned StmtCode owns
/// its bytecode.
[[nodiscard]] StmtCode compileStmt(const Program& prog, const Stmt* s,
                                   const StmtExec* exec,
                                   const std::vector<const RefDesc*>& unionSrcs,
                                   Arena& arena);

/// Compile one owner/source descriptor's subscript forms, one per grid
/// dimension (only Partitioned dims are present()). The simulator uses
/// this for communication-op source descriptors, so per-miss owner
/// resolution never walks a subscript tree.
[[nodiscard]] std::vector<IndexForm> compileDescForms(const Program& prog,
                                                      const RefDesc& desc,
                                                      Arena& arena);

/// Compile a standalone expression (unit tests, tools).
[[nodiscard]] Chunk compileExpr(const Program& prog, const Expr* e,
                                std::vector<FetchSlot>& slots);

/// Flat-index form of an ArrayRef (unit tests, tools).
[[nodiscard]] IndexForm flatIndexForm(const Program& prog, const Expr* ref,
                                      Arena& arena);

}  // namespace bc
}  // namespace phpf
