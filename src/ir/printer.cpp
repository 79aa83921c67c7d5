#include "ir/printer.h"

#include <charconv>
#include <sstream>
#include <string_view>

#include "support/diagnostics.h"

namespace phpf {

namespace {

const char* binOpText(BinaryOp op) {
    switch (op) {
        case BinaryOp::Add: return "+";
        case BinaryOp::Sub: return "-";
        case BinaryOp::Mul: return "*";
        case BinaryOp::Div: return "/";
        case BinaryOp::Pow: return "**";
        case BinaryOp::Lt: return "<";
        case BinaryOp::Le: return "<=";
        case BinaryOp::Gt: return ">";
        case BinaryOp::Ge: return ">=";
        case BinaryOp::Eq: return "==";
        case BinaryOp::Ne: return "/=";
        case BinaryOp::And: return ".and.";
        case BinaryOp::Or: return ".or.";
    }
    return "?";
}

const char* intrinsicName(Intrinsic fn) {
    switch (fn) {
        case Intrinsic::Abs: return "abs";
        case Intrinsic::Max: return "max";
        case Intrinsic::Min: return "min";
        case Intrinsic::Sqrt: return "sqrt";
        case Intrinsic::Mod: return "mod";
        case Intrinsic::Sign: return "sign";
        case Intrinsic::Exp: return "exp";
    }
    return "?";
}

int precedence(const Expr* e) {
    if (e->kind != ExprKind::Binary) return 100;
    switch (e->bop) {
        case BinaryOp::Or: return 1;
        case BinaryOp::And: return 2;
        case BinaryOp::Lt: case BinaryOp::Le: case BinaryOp::Gt:
        case BinaryOp::Ge: case BinaryOp::Eq: case BinaryOp::Ne:
            return 3;
        case BinaryOp::Add: case BinaryOp::Sub: return 4;
        case BinaryOp::Mul: case BinaryOp::Div: return 5;
        case BinaryOp::Pow: return 6;
    }
    return 100;
}

void printExprTo(const Program& p, const Expr* e, std::ostringstream& os,
                 int parentPrec) {
    const int prec = precedence(e);
    switch (e->kind) {
        case ExprKind::IntLit:
            os << e->ival;
            break;
        case ExprKind::RealLit: {
            // The shortest text that parses back to the same double.
            char buf[32];
            const char* end = std::to_chars(buf, buf + sizeof buf, e->rval).ptr;
            const std::string_view t(buf, static_cast<size_t>(end - buf));
            os << t;
            // Make the literal recognizably REAL on round trip.
            if (t.find('.') == std::string_view::npos &&
                t.find('e') == std::string_view::npos)
                os << ".0";
            break;
        }
        case ExprKind::VarRef:
            os << p.sym(e->sym).name;
            break;
        case ExprKind::ArrayRef: {
            os << p.sym(e->sym).name << "(";
            for (size_t i = 0; i < e->args.size(); ++i) {
                if (i > 0) os << ",";
                printExprTo(p, e->args[i], os, 0);
            }
            os << ")";
            break;
        }
        case ExprKind::Unary:
            if (e->uop == UnaryOp::Neg) {
                os << "(-";
                printExprTo(p, e->args[0], os, 100);
                os << ")";
            } else {
                os << ".not.";
                printExprTo(p, e->args[0], os, 100);
            }
            break;
        case ExprKind::Binary: {
            const bool parens = prec < parentPrec;
            if (parens) os << "(";
            printExprTo(p, e->args[0], os, prec);
            os << " " << binOpText(e->bop) << " ";
            printExprTo(p, e->args[1], os, prec + 1);
            if (parens) os << ")";
            break;
        }
        case ExprKind::Call: {
            os << intrinsicName(e->fn) << "(";
            for (size_t i = 0; i < e->args.size(); ++i) {
                if (i > 0) os << ",";
                printExprTo(p, e->args[i], os, 0);
            }
            os << ")";
            break;
        }
    }
}

void printStmtTo(const Program& p, const Stmt* s, std::ostringstream& os,
                 int indent) {
    const std::string pad(static_cast<size_t>(indent), ' ');
    std::string labelTxt;
    if (s->label >= 0) labelTxt = std::to_string(s->label) + " ";
    switch (s->kind) {
        case StmtKind::Assign:
            os << pad << labelTxt << printExpr(p, s->lhs) << " = "
               << printExpr(p, s->rhs) << "\n";
            break;
        case StmtKind::If:
            os << pad << labelTxt << "if (" << printExpr(p, s->cond)
               << ") then\n";
            for (const Stmt* t : s->thenBody) printStmtTo(p, t, os, indent + 2);
            if (!s->elseBody.empty()) {
                os << pad << "else\n";
                for (const Stmt* t : s->elseBody)
                    printStmtTo(p, t, os, indent + 2);
            }
            os << pad << "end if\n";
            break;
        case StmtKind::Do: {
            if (s->independent) {
                os << pad << "!hpf$ independent";
                if (!s->newVars.empty()) {
                    os << ", new(";
                    for (size_t i = 0; i < s->newVars.size(); ++i) {
                        if (i > 0) os << ",";
                        os << p.sym(s->newVars[i]).name;
                    }
                    os << ")";
                }
                os << "\n";
            }
            os << pad << labelTxt << "do " << p.sym(s->loopVar).name << " = "
               << printExpr(p, s->lb) << ", " << printExpr(p, s->ub);
            if (s->step != nullptr) os << ", " << printExpr(p, s->step);
            os << "\n";
            for (const Stmt* t : s->body) printStmtTo(p, t, os, indent + 2);
            os << pad << "end do\n";
            break;
        }
        case StmtKind::Goto:
            os << pad << labelTxt << "go to " << s->gotoTarget << "\n";
            break;
        case StmtKind::Continue:
            os << pad << labelTxt << "continue\n";
            break;
    }
}

const char* distKindText(const DistSpec& d) {
    switch (d.kind) {
        case DistKind::Block: return "block";
        case DistKind::Cyclic: return "cyclic";
        case DistKind::BlockCyclic: return "cyclic";  // printed with width below
        case DistKind::Serial: return "*";
    }
    return "?";
}

}  // namespace

std::string printExpr(const Program& p, const Expr* e) {
    std::ostringstream os;
    printExprTo(p, e, os, 0);
    return os.str();
}

std::string printStmt(const Program& p, const Stmt* s, int indent) {
    std::ostringstream os;
    printStmtTo(p, s, os, indent);
    return os.str();
}

std::string printProgram(const Program& p) {
    std::ostringstream os;
    os << "program " << p.name << "\n";
    for (const auto& s : p.symbols) {
        os << "  " << scalarTypeName(s.type) << " " << s.name;
        if (s.isArray()) {
            os << "(";
            for (int d = 0; d < s.rank(); ++d) {
                if (d > 0) os << ",";
                const auto& dim = s.dims[static_cast<size_t>(d)];
                if (dim.lb != 1) os << dim.lb << ":";
                os << dim.ub;
            }
            os << ")";
        }
        os << "\n";
    }
    if (p.gridRank > 1) os << "!hpf$ processors rank(" << p.gridRank << ")\n";
    for (const auto& a : p.aligns) {
        os << "!hpf$ align " << p.sym(a.source).name;
        const Symbol& src = p.sym(a.source);
        if (src.isArray()) {
            os << "(";
            for (int d = 0; d < src.rank(); ++d) {
                if (d > 0) os << ",";
                os << static_cast<char>('i' + d);
            }
            os << ")";
        }
        os << " with " << p.sym(a.target).name << "(";
        for (size_t d = 0; d < a.dims.size(); ++d) {
            if (d > 0) os << ",";
            const AlignDim& ad = a.dims[d];
            switch (ad.kind) {
                case AlignDim::Kind::SourceDim:
                    os << static_cast<char>('i' + ad.sourceDim);
                    if (ad.offset > 0) os << "+" << ad.offset;
                    if (ad.offset < 0) os << "-" << -ad.offset;
                    break;
                case AlignDim::Kind::Replicate:
                    os << "*";
                    break;
                case AlignDim::Kind::Const:
                    os << ad.constPos;
                    break;
            }
        }
        os << ")\n";
    }
    for (const auto& d : p.distributes) {
        os << "!hpf$ distribute " << p.sym(d.array).name << "(";
        for (size_t i = 0; i < d.specs.size(); ++i) {
            if (i > 0) os << ",";
            os << distKindText(d.specs[i]);
            if (d.specs[i].kind == DistKind::BlockCyclic)
                os << "(" << d.specs[i].blockSize << ")";
        }
        os << ")\n";
    }
    for (const Stmt* s : p.top) printStmtTo(p, s, os, 2);
    os << "end\n";
    return os.str();
}

}  // namespace phpf
