#include "runtime/bytecode.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comm/ref_desc.h"
#include "runtime/flat_index.h"
#include "spmd/lowering.h"
#include "support/diagnostics.h"

namespace phpf::bc {

namespace {

/// Arena-allocated affine accumulator: c0 + sum(coeff * sym) as a
/// linked term list (one bump allocation per term, merged once at the
/// end).
struct AffTerm {
    SymbolId sym;
    std::int64_t coeff;
    AffTerm* next;
};

struct Aff {
    std::int64_t c0 = 0;
    AffTerm* terms = nullptr;
};

/// Folds `e * scale` into `out` when `e` is an affine combination of
/// integer literals and integer scalar symbols. Division, non-integral
/// reals, array-valued subscripts, and variable*variable products all
/// refuse (the caller keeps the tree fallback). Restricting terms to
/// integer-typed scalars keeps the per-term truncation in evalAddr
/// exact, so the affine value matches the interpreter's
/// truncate-at-the-end semantics bit for bit.
bool foldAffine(const Program& prog, const Expr* e, std::int64_t scale,
                Aff& out, Arena& arena) {
    switch (e->kind) {
        case ExprKind::IntLit:
            out.c0 += scale * e->ival;
            return true;
        case ExprKind::RealLit: {
            const auto i = static_cast<std::int64_t>(e->rval);
            if (static_cast<double>(i) != e->rval) return false;
            out.c0 += scale * i;
            return true;
        }
        case ExprKind::VarRef: {
            const Symbol& sym = prog.sym(e->sym);
            if (sym.isArray() || sym.type != ScalarType::Int) return false;
            out.terms = arena.make<AffTerm>(AffTerm{e->sym, scale, out.terms});
            return true;
        }
        case ExprKind::Unary:
            return e->uop == UnaryOp::Neg &&
                   foldAffine(prog, e->args[0], -scale, out, arena);
        case ExprKind::Binary:
            switch (e->bop) {
                case BinaryOp::Add:
                    return foldAffine(prog, e->args[0], scale, out, arena) &&
                           foldAffine(prog, e->args[1], scale, out, arena);
                case BinaryOp::Sub:
                    return foldAffine(prog, e->args[0], scale, out, arena) &&
                           foldAffine(prog, e->args[1], -scale, out, arena);
                case BinaryOp::Mul: {
                    // One side must fold to a pure integer constant.
                    Aff k;
                    if (foldAffine(prog, e->args[1], 1, k, arena) &&
                        k.terms == nullptr)
                        return foldAffine(prog, e->args[0], scale * k.c0, out,
                                          arena);
                    k = Aff{};
                    if (foldAffine(prog, e->args[0], 1, k, arena) &&
                        k.terms == nullptr)
                        return foldAffine(prog, e->args[1], scale * k.c0, out,
                                          arena);
                    return false;
                }
                default:
                    return false;
            }
        case ExprKind::ArrayRef:
        case ExprKind::Call:
            return false;
    }
    return false;
}

/// Merge the term list into a deduplicated IndexForm (coefficients of
/// the same symbol combine; zero coefficients drop).
void finishForm(const Aff& a, IndexForm& out) {
    out.affine = true;
    out.base = a.c0;
    for (const AffTerm* t = a.terms; t != nullptr; t = t->next) {
        bool merged = false;
        for (IndexForm::Term& have : out.terms) {
            if (have.sym != t->sym) continue;
            have.coeff += t->coeff;
            merged = true;
            break;
        }
        if (!merged) out.terms.push_back(IndexForm::Term{t->sym, t->coeff});
    }
    for (size_t i = out.terms.size(); i-- > 0;)
        if (out.terms[i].coeff == 0)
            out.terms.erase(out.terms.begin() +
                            static_cast<std::ptrdiff_t>(i));
}

/// Index form of a subscript VALUE (guard descriptors).
IndexForm valueIndexForm(const Program& prog, const Expr* e, Arena& arena) {
    IndexForm f;
    f.fallback = e;
    f.flatFallback = false;
    Aff a;
    if (foldAffine(prog, e, 1, a, arena)) finishForm(a, f);
    return f;
}

/// Subscript forms of one executor/owner descriptor, per grid dim.
std::vector<IndexForm> descForms(const Program& prog, const RefDesc& desc,
                                 Arena& arena) {
    std::vector<IndexForm> forms(desc.dims.size());
    for (size_t g = 0; g < desc.dims.size(); ++g) {
        const RefDim& dim = desc.dims[g];
        if (dim.kind != RefDim::Kind::Partitioned) continue;
        PHPF_ASSERT(dim.subscriptExpr != nullptr,
                    "partitioned dim without subscript expr");
        forms[g] = valueIndexForm(prog, dim.subscriptExpr, arena);
    }
    return forms;
}

/// Postorder linearizer with stack-discipline register allocation.
class ExprCompiler {
public:
    explicit ExprCompiler(std::vector<FetchSlot>& slots) : slots_(slots) {}

    Chunk take(const Expr* e) {
        compile(e, 0);
        ch_.numRegs = maxReg_ + 1;
        return std::move(ch_);
    }

private:
    void emit(Op op, int a, int b, int c = 0) {
        if (a > maxReg_) maxReg_ = a;
        PHPF_ASSERT(maxReg_ < 256, "bytecode register file overflow");
        ch_.code.push_back(Inst{op, static_cast<std::uint8_t>(a),
                                static_cast<std::uint8_t>(b),
                                static_cast<std::uint8_t>(c)});
    }

    int addConst(double v) {
        for (size_t i = 0; i < ch_.consts.size(); ++i)
            if (ch_.consts[i] == v && std::signbit(ch_.consts[i]) ==
                                          std::signbit(v))
                return static_cast<int>(i);
        ch_.consts.push_back(v);
        PHPF_ASSERT(ch_.consts.size() <= 256, "constant pool overflow");
        return static_cast<int>(ch_.consts.size() - 1);
    }

    int addSlot(const Expr* ref) {
        slots_.push_back(FetchSlot{ref, ref->sym,
                                   ref->kind == ExprKind::ArrayRef});
        PHPF_ASSERT(slots_.size() <= 256, "fetch slot overflow");
        return static_cast<int>(slots_.size() - 1);
    }

    void compileBin(Op op, const Expr* e, int dst) {
        compile(e->args[0], dst);
        compile(e->args[1], dst + 1);
        emit(op, dst, dst, dst + 1);
    }

    void compileUn(Op op, const Expr* e, int dst) {
        compile(e->args[0], dst);
        emit(op, dst, dst);
    }

    void compile(const Expr* e, int dst) {
        switch (e->kind) {
            case ExprKind::IntLit:
                emit(Op::Const, dst, addConst(static_cast<double>(e->ival)));
                return;
            case ExprKind::RealLit:
                emit(Op::Const, dst, addConst(e->rval));
                return;
            case ExprKind::VarRef:
            case ExprKind::ArrayRef:
                emit(Op::Fetch, dst, addSlot(e));
                return;
            case ExprKind::Unary:
                compileUn(e->uop == UnaryOp::Neg ? Op::Neg : Op::Not, e, dst);
                return;
            case ExprKind::Binary:
                switch (e->bop) {
                    case BinaryOp::Add: compileBin(Op::Add, e, dst); return;
                    case BinaryOp::Sub: compileBin(Op::Sub, e, dst); return;
                    case BinaryOp::Mul: compileBin(Op::Mul, e, dst); return;
                    case BinaryOp::Div: compileBin(Op::Div, e, dst); return;
                    case BinaryOp::Pow: compileBin(Op::Pow, e, dst); return;
                    case BinaryOp::Lt: compileBin(Op::Lt, e, dst); return;
                    case BinaryOp::Le: compileBin(Op::Le, e, dst); return;
                    case BinaryOp::Gt: compileBin(Op::Gt, e, dst); return;
                    case BinaryOp::Ge: compileBin(Op::Ge, e, dst); return;
                    case BinaryOp::Eq: compileBin(Op::Eq, e, dst); return;
                    case BinaryOp::Ne: compileBin(Op::Ne, e, dst); return;
                    case BinaryOp::And: compileBin(Op::And, e, dst); return;
                    case BinaryOp::Or: compileBin(Op::Or, e, dst); return;
                }
                return;
            case ExprKind::Call:
                switch (e->fn) {
                    case Intrinsic::Abs: compileUn(Op::Abs, e, dst); return;
                    case Intrinsic::Sqrt: compileUn(Op::Sqrt, e, dst); return;
                    case Intrinsic::Exp: compileUn(Op::Exp, e, dst); return;
                    case Intrinsic::Max: compileBin(Op::Max, e, dst); return;
                    case Intrinsic::Min: compileBin(Op::Min, e, dst); return;
                    case Intrinsic::Mod: compileBin(Op::Mod, e, dst); return;
                    case Intrinsic::Sign: compileBin(Op::Sign, e, dst); return;
                }
                return;
        }
    }

    std::vector<FetchSlot>& slots_;
    Chunk ch_;
    int maxReg_ = 0;
};

}  // namespace

Chunk compileExpr(const Program& /*prog*/, const Expr* e,
                  std::vector<FetchSlot>& slots) {
    return ExprCompiler(slots).take(e);
}

std::vector<IndexForm> compileDescForms(const Program& prog,
                                        const RefDesc& desc, Arena& arena) {
    return descForms(prog, desc, arena);
}

IndexForm flatIndexForm(const Program& prog, const Expr* ref, Arena& arena) {
    IndexForm f;
    // The tree fallback stays even when the affine fold succeeds: debug
    // builds re-derive the index through the interpreter's checked path
    // and compare (evalAddr).
    f.fallback = ref;
    f.flatFallback = true;
    Aff total;
    bool ok = true;
    forEachSubscriptStride(
        prog, ref,
        [&](const Expr* sub, std::int64_t lb, std::int64_t /*ub*/,
            std::int64_t stride) {
            if (!ok) return;
            Aff a;
            if (!foldAffine(prog, sub, 1, a, arena)) {
                ok = false;
                return;
            }
            total.c0 += (a.c0 - lb) * stride;
            for (const AffTerm* t = a.terms; t != nullptr; t = t->next)
                total.terms = arena.make<AffTerm>(
                    AffTerm{t->sym, t->coeff * stride, total.terms});
        });
    if (ok) finishForm(total, f);
    return f;
}

AddrForm bindAddr(const IndexForm& f, std::int64_t offset,
                  const std::vector<char>& isIv) {
    AddrForm a;
    a.base = offset;
    a.offset = offset;
    a.tree = f.fallback;
    a.flat = f.flatFallback;
    a.affine = f.affine || f.fallback == nullptr;
    if (!f.affine) return a;
    a.base += f.base;
    for (const IndexForm::Term& t : f.terms)
        (isIv[static_cast<size_t>(t.sym)] != 0 ? a.iv : a.scalars).push_back(t);
    return a;
}

namespace {

/// floor(a / b) and ceil(a / b) for b != 0.
std::int64_t floorDiv(std::int64_t a, std::int64_t b) {
    std::int64_t q = a / b;
    if (a % b != 0 && (a < 0) != (b < 0)) --q;
    return q;
}
std::int64_t ceilDiv(std::int64_t a, std::int64_t b) { return -floorDiv(-a, b); }

void addSubscriptChecks(const Program& prog, const Expr* ref, Arena& arena,
                        SubscriptCheck& out) {
    forEachSubscriptStride(
        prog, ref,
        [&](const Expr* sub, std::int64_t lb, std::int64_t ub,
            std::int64_t /*stride*/) {
            const IndexForm f = valueIndexForm(prog, sub, arena);
            if (f.affine && f.terms.empty() && f.base >= lb && f.base <= ub)
                return;  // an in-bounds constant
            if (f.affine && f.terms.size() == 1) {
                // lb <= c*x + k <= ub, solved for x.
                const std::int64_t c = f.terms[0].coeff;
                const std::int64_t lo =
                    c > 0 ? ceilDiv(lb - f.base, c) : ceilDiv(ub - f.base, c);
                const std::int64_t hi = c > 0 ? floorDiv(ub - f.base, c)
                                              : floorDiv(lb - f.base, c);
                for (SubscriptCheck::Range& r : out.ranges) {
                    if (r.sym != f.terms[0].sym) continue;
                    r.lo = std::max(r.lo, lo);
                    r.hi = std::min(r.hi, hi);
                    return;
                }
                out.ranges.push_back(
                    SubscriptCheck::Range{f.terms[0].sym, lo, hi});
                return;
            }
            out.perSubscript = true;
        });
}

/// True when a statement of `block` (nested bodies included) assigns
/// scalar `x`, as an Assign lhs or as a DO variable.
bool assignsScalar(const std::vector<Stmt*>& block, SymbolId x) {
    for (const Stmt* t : block) {
        switch (t->kind) {
            case StmtKind::Assign:
                if (t->lhs->kind == ExprKind::VarRef && t->lhs->sym == x)
                    return true;
                break;
            case StmtKind::Do:
                if (t->loopVar == x || assignsScalar(t->body, x)) return true;
                break;
            case StmtKind::If:
                if (assignsScalar(t->thenBody, x) ||
                    assignsScalar(t->elseBody, x))
                    return true;
                break;
            case StmtKind::Goto:
            case StmtKind::Continue:
                break;
        }
    }
    return false;
}

/// Values scalar `x` can hold inside `loops[0..depth)` (outermost
/// first), when x is the variable of one of them: the hull of that
/// loop's bounds, each bound an affine form over the variables of the
/// loops outside it. False when the loop body may assign x, a bound is
/// not of that shape, or x is no loop's variable.
bool loopVarRange(const Program& prog, const std::vector<Stmt*>& loops,
                  size_t depth, SymbolId x, Arena& arena, std::int64_t& lo,
                  std::int64_t& hi) {
    size_t k = depth;
    while (k > 0 && loops[k - 1]->loopVar != x) --k;
    if (k == 0) return false;
    const Stmt* loop = loops[k - 1];
    if (assignsScalar(loop->body, x)) return false;
    lo = std::numeric_limits<std::int64_t>::max();
    hi = std::numeric_limits<std::int64_t>::min();
    for (const Expr* bound : {loop->lb, loop->ub}) {
        const IndexForm f = valueIndexForm(prog, bound, arena);
        if (!f.affine) return false;
        std::int64_t bLo = f.base;
        std::int64_t bHi = f.base;
        for (const IndexForm::Term& t : f.terms) {
            std::int64_t tLo = 0;
            std::int64_t tHi = 0;
            if (!loopVarRange(prog, loops, k - 1, t.sym, arena, tLo, tHi))
                return false;
            bLo += t.coeff * (t.coeff > 0 ? tLo : tHi);
            bHi += t.coeff * (t.coeff > 0 ? tHi : tLo);
        }
        lo = std::min(lo, bLo);
        hi = std::max(hi, bHi);
    }
    return true;
}

}  // namespace

StmtCode compileStmt(const Program& prog, const Stmt* s, const StmtExec* exec,
                     const std::vector<const RefDesc*>& unionSrcs,
                     Arena& arena) {
    StmtCode out;
    const Expr* value = nullptr;
    if (s->kind == StmtKind::Assign) {
        value = s->rhs;
        if (s->lhs->kind == ExprKind::ArrayRef)
            out.lhsIndex = flatIndexForm(prog, s->lhs, arena);
    } else if (s->kind == StmtKind::If) {
        value = s->cond;
    }
    if (value != nullptr) out.value = compileExpr(prog, value, out.slots);
    out.slotIndex.resize(out.slots.size());
    for (size_t i = 0; i < out.slots.size(); ++i) {
        if (!out.slots[i].isArray) continue;
        out.slotIndex[i] = flatIndexForm(prog, out.slots[i].ref, arena);
        addSubscriptChecks(prog, out.slots[i].ref, arena, out.subscripts);
    }
    if (s->kind == StmtKind::Assign && s->lhs->kind == ExprKind::ArrayRef)
        addSubscriptChecks(prog, s->lhs, arena, out.subscripts);
    // A range the enclosing loops' bounds already guarantee needs no
    // check at run time.
    const std::vector<Stmt*> loops = prog.enclosingLoops(s);
    std::erase_if(out.subscripts.ranges, [&](const SubscriptCheck::Range& r) {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        return loopVarRange(prog, loops, loops.size(), r.sym, arena, lo, hi) &&
               lo >= r.lo && hi <= r.hi;
    });
    if (exec != nullptr) {
        if (exec->guard == StmtExec::Guard::OwnerOf)
            out.execIndex = descForms(prog, exec->execDesc, arena);
        else if (exec->guard == StmtExec::Guard::Union)
            for (const RefDesc* d : unionSrcs)
                out.unionIndex.push_back(descForms(prog, *d, arena));
    }
    return out;
}

}  // namespace phpf::bc
