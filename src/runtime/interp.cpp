#include "runtime/interp.h"

#include <cmath>

#include "runtime/flat_index.h"
#include "support/diagnostics.h"

namespace phpf {

Interpreter::Interpreter(const Program& p) : prog_(p), store_(p) {}

double Interpreter::eval(const Expr* e) const {
    switch (e->kind) {
        case ExprKind::IntLit:
            return static_cast<double>(e->ival);
        case ExprKind::RealLit:
            return e->rval;
        case ExprKind::VarRef:
            return store_.get(e->sym);
        case ExprKind::ArrayRef:
            return store_.get(e->sym, flatIndexOf(e));
        case ExprKind::Unary: {
            const double a = eval(e->args[0]);
            return e->uop == UnaryOp::Neg ? -a : (a != 0.0 ? 0.0 : 1.0);
        }
        case ExprKind::Binary: {
            const double a = eval(e->args[0]);
            const double b = eval(e->args[1]);
            switch (e->bop) {
                case BinaryOp::Add: return a + b;
                case BinaryOp::Sub: return a - b;
                case BinaryOp::Mul: return a * b;
                case BinaryOp::Div: return a / b;
                case BinaryOp::Pow: return std::pow(a, b);
                case BinaryOp::Lt: return a < b ? 1.0 : 0.0;
                case BinaryOp::Le: return a <= b ? 1.0 : 0.0;
                case BinaryOp::Gt: return a > b ? 1.0 : 0.0;
                case BinaryOp::Ge: return a >= b ? 1.0 : 0.0;
                case BinaryOp::Eq: return a == b ? 1.0 : 0.0;
                case BinaryOp::Ne: return a != b ? 1.0 : 0.0;
                case BinaryOp::And: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
                case BinaryOp::Or: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
            }
            return 0.0;
        }
        case ExprKind::Call: {
            switch (e->fn) {
                case Intrinsic::Abs: return std::abs(eval(e->args[0]));
                case Intrinsic::Max:
                    return std::max(eval(e->args[0]), eval(e->args[1]));
                case Intrinsic::Min:
                    return std::min(eval(e->args[0]), eval(e->args[1]));
                case Intrinsic::Sqrt: return std::sqrt(eval(e->args[0]));
                case Intrinsic::Mod:
                    return std::fmod(eval(e->args[0]), eval(e->args[1]));
                case Intrinsic::Sign: {
                    const double a = eval(e->args[0]);
                    const double b = eval(e->args[1]);
                    return b >= 0.0 ? std::abs(a) : -std::abs(a);
                }
                case Intrinsic::Exp: return std::exp(eval(e->args[0]));
            }
            return 0.0;
        }
    }
    return 0.0;
}

std::int64_t Interpreter::flatIndexOf(const Expr* arrayRef) const {
    // Column-major flattening shared with the SPMD simulator and the
    // bytecode compiler (runtime/flat_index.h): the layout exists
    // exactly once.
    return flatIndexOfRef(
        prog_, arrayRef, [this](const Expr* sub) { return evalIndex(sub); },
        [&](int, std::int64_t) {
            internalError("subscript out of bounds for " +
                          prog_.sym(arrayRef->sym).name);
        });
}

void Interpreter::execStmt(const Stmt* s) {
    ++executed_;
    switch (s->kind) {
        case StmtKind::Assign: {
            const double v = eval(s->rhs);
            if (s->lhs->kind == ExprKind::VarRef)
                store_.set(s->lhs->sym, 0, v);
            else
                store_.set(s->lhs->sym, flatIndexOf(s->lhs), v);
            break;
        }
        case StmtKind::If:
            if (eval(s->cond) != 0.0)
                execBlock(s->thenBody);
            else
                execBlock(s->elseBody);
            break;
        case StmtKind::Do: {
            const auto lb = evalIndex(s->lb);
            const auto ub = evalIndex(s->ub);
            const auto step = s->step != nullptr ? evalIndex(s->step)
                                                 : std::int64_t{1};
            PHPF_ASSERT(step != 0, "zero step in DO");
            for (std::int64_t iv = lb; step > 0 ? iv <= ub : iv >= ub;
                 iv += step) {
                store_.set(s->loopVar, 0, static_cast<double>(iv));
                try {
                    execBlock(s->body);
                } catch (GotoSignal& g) {
                    // Forward jump landing inside this loop body resumes
                    // the same iteration from the label.
                    bool handled = false;
                    for (size_t i = 0; i < s->body.size(); ++i) {
                        if (s->body[i]->label == g.label) {
                            std::vector<Stmt*> rest(s->body.begin() +
                                                        static_cast<std::ptrdiff_t>(i),
                                                    s->body.end());
                            execBlock(rest);
                            handled = true;
                            break;
                        }
                    }
                    if (!handled) throw;
                }
            }
            break;
        }
        case StmtKind::Goto:
            throw GotoSignal{s->gotoTarget};
        case StmtKind::Continue:
            break;
    }
}

void Interpreter::execBlock(const std::vector<Stmt*>& block) {
    for (size_t i = 0; i < block.size(); ++i) {
        try {
            execStmt(block[i]);
        } catch (GotoSignal& g) {
            bool handled = false;
            for (size_t j = i + 1; j < block.size(); ++j) {
                if (block[j]->label == g.label) {
                    i = j - 1;  // resume just before the label target
                    handled = true;
                    break;
                }
            }
            if (!handled) throw;
        }
    }
}

void Interpreter::run() { execBlock(prog_.top); }

double Interpreter::scalar(const std::string& name) const {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    return store_.get(s);
}

double Interpreter::element(const std::string& name,
                            std::vector<std::int64_t> idx) const {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    return store_.get(s, store_.flatten(prog_, s, idx));
}

void Interpreter::setScalar(const std::string& name, double v) {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    store_.set(s, 0, v);
}

void Interpreter::setElement(const std::string& name,
                             std::vector<std::int64_t> idx, double v) {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    store_.set(s, store_.flatten(prog_, s, idx), v);
}

}  // namespace phpf
