#include "frontend/parser.h"

#include <algorithm>
#include <optional>

#include "analysis/affine.h"

namespace phpf {

namespace {

/// Value of an integer constant expression (literals, which PARAMETERs
/// already are, under unary minus, +, - and *), read without folding
/// the tree.
std::optional<std::int64_t> constantValue(const Expr* e) {
    if (e->kind == ExprKind::IntLit) return e->ival;
    if (e->kind == ExprKind::Unary && e->uop == UnaryOp::Neg) {
        const auto v = constantValue(e->args[0]);
        return v ? std::optional(-*v) : std::nullopt;
    }
    if (e->kind != ExprKind::Binary) return std::nullopt;
    const auto a = constantValue(e->args[0]);
    const auto b = constantValue(e->args[1]);
    if (!a || !b) return std::nullopt;
    switch (e->bop) {
        case BinaryOp::Add: return *a + *b;
        case BinaryOp::Sub: return *a - *b;
        case BinaryOp::Mul: return *a * *b;
        default: return std::nullopt;
    }
}

}  // namespace

Parser::Parser(std::string source, DiagEngine& diags) : diags_(diags) {
    Lexer lexer(std::move(source), diags);
    toks_ = lexer.run();
    blockStack_.push_back(&prog_.top);
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

const Token& Parser::peek(int ahead) const {
    const size_t i = std::min(pos_ + static_cast<size_t>(ahead),
                              toks_.size() - 1);
    return toks_[i];
}

const Token& Parser::advance() {
    const Token& t = toks_[pos_];
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
}

bool Parser::accept(TokKind k) {
    if (check(k)) {
        advance();
        return true;
    }
    return false;
}

const Token* Parser::expect(TokKind k, const std::string& what) {
    if (check(k)) return &advance();
    diags_.error(peek().loc, "expected " + what);
    return nullptr;
}

bool Parser::checkIdent(const std::string& word) const {
    return peek().kind == TokKind::Ident && peek().text == word;
}

bool Parser::acceptIdent(const std::string& word) {
    if (checkIdent(word)) {
        advance();
        return true;
    }
    return false;
}

void Parser::expectNewline() {
    if (!accept(TokKind::Newline) && !check(TokKind::EndOfFile)) {
        diags_.error(peek().loc, "expected end of statement");
        skipToNewline();
    }
}

void Parser::skipToNewline() {
    while (!check(TokKind::Newline) && !check(TokKind::EndOfFile)) advance();
    accept(TokKind::Newline);
}

// ---------------------------------------------------------------------------
// Symbols
// ---------------------------------------------------------------------------

SymbolId Parser::declare(const std::string& name, ScalarType type,
                         std::vector<ArrayDim> dims, SourceLoc loc) {
    if (prog_.findSymbol(name) != kNoSymbol) {
        diags_.error(loc, "redeclaration of " + name);
        return prog_.findSymbol(name);
    }
    return prog_.addSymbol(name, type, std::move(dims));
}

SymbolId Parser::lookupOrImplicit(const std::string& name, SourceLoc loc) {
    const SymbolId s = prog_.findSymbol(name);
    if (s != kNoSymbol) return s;
    // Fortran implicit typing: i..n INTEGER, everything else REAL.
    const char c = name.empty() ? 'x' : name[0];
    const ScalarType type =
        (c >= 'i' && c <= 'n') ? ScalarType::Int : ScalarType::Real;
    return declare(name, type, {}, loc);
}

// ---------------------------------------------------------------------------
// Declarations and directives
// ---------------------------------------------------------------------------

void Parser::parseDeclaration(ScalarType type) {
    do {
        const Token* name = expect(TokKind::Ident, "variable name");
        if (name == nullptr) {
            skipToNewline();
            return;
        }
        std::vector<ArrayDim> dims;
        if (accept(TokKind::LParen)) {
            do {
                // dim := expr | expr ':' expr   (constant-folded)
                Expr* first = foldConstants(prog_, parseExpr());
                ArrayDim dim;
                if (accept(TokKind::Colon)) {
                    Expr* second = foldConstants(prog_, parseExpr());
                    dim.lb = first != nullptr && first->kind == ExprKind::IntLit
                                 ? first->ival
                                 : 1;
                    dim.ub = second != nullptr &&
                                     second->kind == ExprKind::IntLit
                                 ? second->ival
                                 : 1;
                } else {
                    dim.lb = 1;
                    dim.ub = first != nullptr && first->kind == ExprKind::IntLit
                                 ? first->ival
                                 : 1;
                    if (first == nullptr || first->kind != ExprKind::IntLit)
                        diags_.error(name->loc,
                                     "array bound of " + name->text +
                                         " must be a constant");
                }
                dims.push_back(dim);
            } while (accept(TokKind::Comma));
            expect(TokKind::RParen, ")");
        }
        declare(name->text, type, std::move(dims), name->loc);
    } while (accept(TokKind::Comma));
    expectNewline();
}

void Parser::parseParameter() {
    expect(TokKind::LParen, "(");
    do {
        const Token* name = expect(TokKind::Ident, "parameter name");
        expect(TokKind::Assign, "=");
        Expr* value = parseExpr();
        if (name != nullptr && value != nullptr &&
            value->kind == ExprKind::IntLit) {
            parameters_[name->text] = value->ival;
        } else if (name != nullptr) {
            diags_.error(name->loc, "parameter value must be constant");
        }
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, ")");
    expectNewline();
}

std::vector<DistSpec> Parser::parseDistSpecs() {
    std::vector<DistSpec> specs;
    expect(TokKind::LParen, "(");
    do {
        DistSpec spec;
        if (accept(TokKind::Star)) {
            spec.kind = DistKind::Serial;
        } else if (acceptIdent("block")) {
            spec.kind = DistKind::Block;
        } else if (acceptIdent("cyclic")) {
            spec.kind = DistKind::Cyclic;
            if (accept(TokKind::LParen)) {
                const Token* width = expect(TokKind::IntLit, "block width");
                if (width != nullptr && width->ival > 1) {
                    spec.kind = DistKind::BlockCyclic;
                    spec.blockSize = static_cast<int>(width->ival);
                }
                expect(TokKind::RParen, ")");
            }
        } else {
            diags_.error(peek().loc, "expected distribution format");
            advance();
        }
        specs.push_back(spec);
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, ")");
    return specs;
}

void Parser::parseDistribute() {
    // Form 1: distribute A(block,*)
    // Form 2: distribute (block,*) :: A, B
    if (check(TokKind::LParen)) {
        std::vector<DistSpec> specs = parseDistSpecs();
        expect(TokKind::ColonColon, "::");
        do {
            const Token* name = expect(TokKind::Ident, "array name");
            if (name != nullptr) {
                const SymbolId s = prog_.findSymbol(name->text);
                if (s == kNoSymbol) {
                    diags_.error(name->loc, "unknown array " + name->text);
                } else {
                    prog_.distributes.push_back({s, specs});
                }
            }
        } while (accept(TokKind::Comma));
    } else {
        const Token* name = expect(TokKind::Ident, "array name");
        if (name == nullptr) {
            skipToNewline();
            return;
        }
        const SymbolId s = prog_.findSymbol(name->text);
        if (s == kNoSymbol)
            diags_.error(name->loc, "unknown array " + name->text);
        std::vector<DistSpec> specs = parseDistSpecs();
        if (s != kNoSymbol) prog_.distributes.push_back({s, std::move(specs)});
    }
    expectNewline();
}

void Parser::parseAlign() {
    // Form 1: align B(i,j) with A(i,j+1)
    // Form 2: align (i) with A(i) :: B, C
    // Form 3: align B with A(*)        (scalar-shaped source)
    std::vector<std::string> dummies;
    std::vector<std::string> sources;
    bool listForm = false;

    if (check(TokKind::LParen)) {
        listForm = true;
        advance();
        do {
            const Token* d = expect(TokKind::Ident, "align dummy");
            if (d != nullptr) dummies.push_back(d->text);
        } while (accept(TokKind::Comma));
        expect(TokKind::RParen, ")");
    } else {
        const Token* src = expect(TokKind::Ident, "align source");
        if (src == nullptr) {
            skipToNewline();
            return;
        }
        sources.push_back(src->text);
        if (accept(TokKind::LParen)) {
            do {
                const Token* d = expect(TokKind::Ident, "align dummy");
                if (d != nullptr) dummies.push_back(d->text);
            } while (accept(TokKind::Comma));
            expect(TokKind::RParen, ")");
        }
    }

    if (!acceptIdent("with")) {
        diags_.error(peek().loc, "expected WITH in ALIGN");
        skipToNewline();
        return;
    }
    const Token* target = expect(TokKind::Ident, "align target");
    if (target == nullptr) {
        skipToNewline();
        return;
    }
    const SymbolId targetSym = prog_.findSymbol(target->text);
    if (targetSym == kNoSymbol) {
        diags_.error(target->loc, "unknown align target " + target->text);
        skipToNewline();
        return;
    }

    std::vector<AlignDim> specs;
    expect(TokKind::LParen, "(");
    do {
        AlignDim ad;
        if (accept(TokKind::Star)) {
            ad.kind = AlignDim::Kind::Replicate;
        } else if (check(TokKind::IntLit)) {
            ad.kind = AlignDim::Kind::Const;
            ad.constPos = advance().ival;
        } else {
            const Token* d = expect(TokKind::Ident, "align dummy or *");
            if (d == nullptr) break;
            const auto it = std::find(dummies.begin(), dummies.end(), d->text);
            if (it == dummies.end()) {
                diags_.error(d->loc, "unknown align dummy " + d->text);
                break;
            }
            ad.kind = AlignDim::Kind::SourceDim;
            ad.sourceDim = static_cast<int>(it - dummies.begin());
            if (accept(TokKind::Plus)) {
                const Token* off = expect(TokKind::IntLit, "offset");
                if (off != nullptr) ad.offset = off->ival;
            } else if (accept(TokKind::Minus)) {
                const Token* off = expect(TokKind::IntLit, "offset");
                if (off != nullptr) ad.offset = -off->ival;
            }
        }
        specs.push_back(ad);
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, ")");

    if (listForm) {
        expect(TokKind::ColonColon, "::");
        do {
            const Token* name = expect(TokKind::Ident, "aligned array");
            if (name != nullptr) sources.push_back(name->text);
        } while (accept(TokKind::Comma));
    }
    for (const std::string& src : sources) {
        const SymbolId s = prog_.findSymbol(src);
        if (s == kNoSymbol) {
            diags_.error(target->loc, "unknown align source " + src);
            continue;
        }
        prog_.aligns.push_back({s, targetSym, specs});
    }
    expectNewline();
}

void Parser::parseDirective() {
    if (acceptIdent("processors")) {
        // processors rank(N)   or   processors P(n1,n2,...)
        const Token* name = expect(TokKind::Ident, "processors name");
        expect(TokKind::LParen, "(");
        int rank = 0;
        if (name != nullptr && name->text == "rank") {
            const Token* r = expect(TokKind::IntLit, "rank");
            rank = r != nullptr ? static_cast<int>(r->ival) : 1;
        } else {
            do {
                expect(TokKind::IntLit, "grid extent");
                ++rank;
            } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, ")");
        prog_.gridRank = std::max(rank, 1);
        expectNewline();
    } else if (acceptIdent("distribute")) {
        parseDistribute();
    } else if (acceptIdent("align")) {
        parseAlign();
    } else if (acceptIdent("independent")) {
        pendingIndependent_ = true;
        pendingNewVars_.clear();
        if (accept(TokKind::Comma)) {
            if (acceptIdent("new")) {
                expect(TokKind::LParen, "(");
                do {
                    const Token* v = expect(TokKind::Ident, "NEW variable");
                    if (v != nullptr)
                        pendingNewVars_.push_back(
                            lookupOrImplicit(v->text, v->loc));
                } while (accept(TokKind::Comma));
                expect(TokKind::RParen, ")");
            } else {
                diags_.error(peek().loc, "expected NEW clause");
            }
        }
        expectNewline();
    } else {
        diags_.error(peek().loc, "unknown HPF directive");
        skipToNewline();
    }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Parser::append(Stmt* s) { blockStack_.back()->push_back(s); }

void Parser::parseStatements(const std::string& endKeyword) {
    while (!check(TokKind::EndOfFile)) {
        accept(TokKind::Newline);
        if (checkIdent("end")) {
            // "end", "end do", "end if", "endif", "enddo"
            if (endKeyword.empty()) return;  // top level: caller eats END
            const size_t save = pos_;
            advance();
            if (acceptIdent(endKeyword)) return;
            pos_ = save;
            return;  // plain END also terminates (caller validates)
        }
        if (checkIdent("enddo") && endKeyword == "do") {
            advance();
            return;
        }
        if (checkIdent("endif") && endKeyword == "if") {
            advance();
            return;
        }
        if (checkIdent("else") && endKeyword == "if") return;
        parseStatement();
    }
}

void Parser::parseStatement() {
    if (check(TokKind::HpfDirective)) {
        advance();
        parseDirective();
        return;
    }
    int label = -1;
    if (check(TokKind::IntLit)) {
        label = static_cast<int>(advance().ival);
    }
    if (checkIdent("real")) {
        advance();
        parseDeclaration(ScalarType::Real);
        return;
    }
    if (checkIdent("integer")) {
        advance();
        parseDeclaration(ScalarType::Int);
        return;
    }
    if (checkIdent("parameter")) {
        advance();
        parseParameter();
        return;
    }
    if (checkIdent("do")) {
        advance();
        parseDo(label);
        return;
    }
    if (checkIdent("if")) {
        advance();
        parseIf(label);
        return;
    }
    if (checkIdent("goto") ||
        (checkIdent("go") && peek(1).kind == TokKind::Ident &&
         peek(1).text == "to")) {
        if (acceptIdent("go")) acceptIdent("to");
        else acceptIdent("goto");
        const Token* target = expect(TokKind::IntLit, "label");
        Stmt* s = prog_.newStmt(StmtKind::Goto);
        s->label = label;
        s->gotoTarget = target != nullptr ? static_cast<int>(target->ival) : 0;
        append(s);
        expectNewline();
        return;
    }
    if (checkIdent("continue")) {
        advance();
        Stmt* s = prog_.newStmt(StmtKind::Continue);
        s->label = label;
        append(s);
        expectNewline();
        return;
    }
    // Assignment: ref = expr
    if (check(TokKind::Ident)) {
        const Token name = advance();
        Expr* lhs = parseRef(name.text, name.loc);
        expect(TokKind::Assign, "=");
        Expr* rhs = parseExpr();
        Stmt* s = prog_.newStmt(StmtKind::Assign);
        s->label = label;
        s->loc = name.loc;
        s->lhs = lhs;
        s->rhs = rhs;
        append(s);
        expectNewline();
        return;
    }
    diags_.error(peek().loc, "expected a statement");
    skipToNewline();
}

void Parser::parseDo(int label) {
    const Token* var = expect(TokKind::Ident, "loop variable");
    expect(TokKind::Assign, "=");
    Expr* lb = parseExpr();
    expect(TokKind::Comma, ",");
    Expr* ub = parseExpr();
    Expr* step = nullptr;
    if (accept(TokKind::Comma)) {
        const SourceLoc stepLoc = peek().loc;
        const int errors = diags_.errorCount();
        step = parseExpr();
        // The step stays as parsed: the printed-source round trip
        // compares programs.
        if (diags_.errorCount() == errors && constantValue(step) == 0)
            diags_.error(stepLoc, "DO step must not be zero");
    }
    expectNewline();

    Stmt* s = prog_.newStmt(StmtKind::Do);
    s->label = label;
    s->loopVar = var != nullptr ? lookupOrImplicit(var->text, var->loc)
                                : kNoSymbol;
    s->lb = lb;
    s->ub = ub;
    s->step = step;
    if (pendingIndependent_) {
        s->independent = true;
        s->newVars = pendingNewVars_;
        pendingIndependent_ = false;
        pendingNewVars_.clear();
    }
    append(s);
    blockStack_.push_back(&s->body);
    parseStatements("do");
    blockStack_.pop_back();
    expectNewline();
}

void Parser::parseIf(int label) {
    expect(TokKind::LParen, "(");
    Expr* cond = parseExpr();
    expect(TokKind::RParen, ")");

    Stmt* s = prog_.newStmt(StmtKind::If);
    s->label = label;
    s->cond = cond;
    append(s);

    if (acceptIdent("then")) {
        expectNewline();
        blockStack_.push_back(&s->thenBody);
        parseStatements("if");
        blockStack_.pop_back();
        if (acceptIdent("else")) {
            expectNewline();
            blockStack_.push_back(&s->elseBody);
            parseStatements("if");
            blockStack_.pop_back();
        }
        expectNewline();
    } else {
        // Logical one-line IF: the statement joins the then-branch.
        blockStack_.push_back(&s->thenBody);
        parseStatement();
        blockStack_.pop_back();
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Expr* Parser::intLit(std::int64_t v) {
    Expr* e = prog_.newExpr(ExprKind::IntLit);
    e->ival = v;
    return e;
}

Expr* Parser::parseExpr() { return parseOr(); }

Expr* Parser::parseOr() {
    Expr* lhs = parseAnd();
    while (accept(TokKind::OrOp)) {
        Expr* e = prog_.newExpr(ExprKind::Binary);
        e->bop = BinaryOp::Or;
        e->args = {lhs, parseAnd()};
        lhs = e;
    }
    return lhs;
}

Expr* Parser::parseAnd() {
    Expr* lhs = parseNot();
    while (accept(TokKind::AndOp)) {
        Expr* e = prog_.newExpr(ExprKind::Binary);
        e->bop = BinaryOp::And;
        e->args = {lhs, parseNot()};
        lhs = e;
    }
    return lhs;
}

Expr* Parser::parseNot() {
    if (accept(TokKind::NotOp)) {
        Expr* e = prog_.newExpr(ExprKind::Unary);
        e->uop = UnaryOp::Not;
        e->args = {parseNot()};
        return e;
    }
    return parseComparison();
}

Expr* Parser::parseComparison() {
    Expr* lhs = parseAddSub();
    BinaryOp op;
    if (accept(TokKind::Lt)) op = BinaryOp::Lt;
    else if (accept(TokKind::Le)) op = BinaryOp::Le;
    else if (accept(TokKind::Gt)) op = BinaryOp::Gt;
    else if (accept(TokKind::Ge)) op = BinaryOp::Ge;
    else if (accept(TokKind::EqEq)) op = BinaryOp::Eq;
    else if (accept(TokKind::NeOp)) op = BinaryOp::Ne;
    else return lhs;
    Expr* e = prog_.newExpr(ExprKind::Binary);
    e->bop = op;
    e->args = {lhs, parseAddSub()};
    return e;
}

Expr* Parser::parseAddSub() {
    Expr* lhs = parseMulDiv();
    while (check(TokKind::Plus) || check(TokKind::Minus)) {
        const BinaryOp op =
            advance().kind == TokKind::Plus ? BinaryOp::Add : BinaryOp::Sub;
        Expr* e = prog_.newExpr(ExprKind::Binary);
        e->bop = op;
        e->args = {lhs, parseMulDiv()};
        lhs = e;
    }
    return lhs;
}

Expr* Parser::parseMulDiv() {
    Expr* lhs = parseUnary();
    while (check(TokKind::Star) || check(TokKind::Slash)) {
        const BinaryOp op =
            advance().kind == TokKind::Star ? BinaryOp::Mul : BinaryOp::Div;
        Expr* e = prog_.newExpr(ExprKind::Binary);
        e->bop = op;
        e->args = {lhs, parseUnary()};
        lhs = e;
    }
    return lhs;
}

Expr* Parser::parseUnary() {
    if (accept(TokKind::Minus)) {
        Expr* e = prog_.newExpr(ExprKind::Unary);
        e->uop = UnaryOp::Neg;
        e->args = {parseUnary()};
        return e;
    }
    accept(TokKind::Plus);
    return parsePower();
}

Expr* Parser::parsePower() {
    Expr* lhs = parsePrimary();
    if (accept(TokKind::StarStar)) {
        Expr* e = prog_.newExpr(ExprKind::Binary);
        e->bop = BinaryOp::Pow;
        e->args = {lhs, parseUnary()};  // right associative
        return e;
    }
    return lhs;
}

Expr* Parser::parseRef(const std::string& name, SourceLoc loc) {
    const SymbolId sym = lookupOrImplicit(name, loc);
    if (!check(TokKind::LParen)) {
        Expr* e = prog_.newExpr(ExprKind::VarRef);
        e->sym = sym;
        e->loc = loc;
        return e;
    }
    advance();
    Expr* e = prog_.newExpr(ExprKind::ArrayRef);
    e->sym = sym;
    e->loc = loc;
    do {
        e->args.push_back(parseExpr());
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, ")");
    if (!prog_.sym(sym).isArray())
        diags_.error(loc, name + " is not an array");
    else if (static_cast<int>(e->args.size()) != prog_.sym(sym).rank())
        diags_.error(loc, "wrong subscript count for " + name);
    return e;
}

Expr* Parser::parsePrimary() {
    if (check(TokKind::IntLit)) {
        const Token& t = advance();
        return intLit(t.ival);
    }
    if (check(TokKind::RealLit)) {
        const Token& t = advance();
        Expr* e = prog_.newExpr(ExprKind::RealLit);
        e->rval = t.rval;
        return e;
    }
    if (accept(TokKind::LParen)) {
        Expr* e = parseExpr();
        expect(TokKind::RParen, ")");
        return e;
    }
    if (check(TokKind::Ident)) {
        const Token name = advance();
        // Parameter constant?
        const auto it = parameters_.find(name.text);
        if (it != parameters_.end()) return intLit(it->second);
        // Intrinsic call?
        static const std::pair<const char*, Intrinsic> kIntrinsics[] = {
            {"abs", Intrinsic::Abs},   {"max", Intrinsic::Max},
            {"min", Intrinsic::Min},   {"sqrt", Intrinsic::Sqrt},
            {"mod", Intrinsic::Mod},   {"sign", Intrinsic::Sign},
            {"exp", Intrinsic::Exp},
        };
        if (check(TokKind::LParen) && prog_.findSymbol(name.text) == kNoSymbol) {
            for (const auto& [iname, fn] : kIntrinsics) {
                if (name.text == iname) {
                    advance();  // (
                    Expr* e = prog_.newExpr(ExprKind::Call);
                    e->fn = fn;
                    do {
                        e->args.push_back(parseExpr());
                    } while (accept(TokKind::Comma));
                    expect(TokKind::RParen, ")");
                    return e;
                }
            }
        }
        return parseRef(name.text, name.loc);
    }
    diags_.error(peek().loc, "expected an expression");
    advance();
    return intLit(0);
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

Program Parser::parse() {
    accept(TokKind::Newline);
    if (acceptIdent("program")) {
        const Token* name = expect(TokKind::Ident, "program name");
        if (name != nullptr) prog_.name = name->text;
        expectNewline();
    }
    parseStatements("");
    if (!acceptIdent("end"))
        diags_.error(peek().loc, "expected END");
    if (!diags_.hasErrors()) prog_.finalize();
    return std::move(prog_);
}

Program parseProgramOrDie(const std::string& source) {
    DiagEngine diags;
    Parser parser(source, diags);
    Program p = parser.parse();
    if (diags.hasErrors()) internalError("parse failed:\n" + diags.dump());
    return p;
}

}  // namespace phpf
