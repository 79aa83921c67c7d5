#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "frontend/parser.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "runtime/interp.h"

namespace phpf {
namespace {

std::string exprText(const std::function<Ex(ProgramBuilder&)>& make) {
    ProgramBuilder b("t");
    auto r = b.realVar("r");
    b.assign(b.idx(r), make(b));
    Program p = b.finish();
    return printExpr(p, p.top[0]->rhs);
}

TEST(Printer, BinaryPrecedenceParenthesization) {
    EXPECT_EQ(exprText([](ProgramBuilder& b) {
                  return (b.lit(1.0) + b.lit(2.0)) * b.lit(3.0);
              }),
              "(1.0 + 2.0) * 3.0");
    EXPECT_EQ(exprText([](ProgramBuilder& b) {
                  return b.lit(1.0) + b.lit(2.0) * b.lit(3.0);
              }),
              "1.0 + 2.0 * 3.0");
    EXPECT_EQ(exprText([](ProgramBuilder& b) {
                  return b.lit(1.0) - (b.lit(2.0) - b.lit(3.0));
              }),
              "1.0 - (2.0 - 3.0)");
    EXPECT_EQ(exprText([](ProgramBuilder& b) {
                  return b.lit(6.0) / (b.lit(2.0) * b.lit(3.0));
              }),
              "6.0 / (2.0 * 3.0)");
}

TEST(Printer, RealLiteralsKeepRealness) {
    // Round-trippable: a REAL literal must not print as an INT literal.
    const std::string t = exprText(
        [](ProgramBuilder& b) { return b.lit(2.0) + b.lit(0.25); });
    EXPECT_EQ(t, "2.0 + 0.25");
}

TEST(Printer, IntrinsicsAndComparisons) {
    EXPECT_EQ(exprText([](ProgramBuilder& b) {
                  return b.call(Intrinsic::Max,
                                {b.lit(1.0), b.call(Intrinsic::Abs,
                                                    {b.lit(-2.0)})});
              }),
              "max(1.0,abs(-2.0))");
    EXPECT_EQ(exprText([](ProgramBuilder& b) {
                  return ne(b.lit(1.0), b.lit(2.0));
              }),
              "1.0 /= 2.0");
}

// A REAL literal prints in the shortest form that parses back to the
// same double, so print -> parse keeps every digit.
TEST(Printer, RealLiteralsRoundTripBitExact) {
    const std::pair<double, const char*> cases[] = {
        {1.0000002, "1.0000002"},
        {1e-07, "1e-07"},
        {6.02214076e+23, "6.02214076e+23"},
        {1234567.0, "1234567.0"},
        {0.1, "0.1"},
    };
    for (const auto& [value, text] : cases) {
        ProgramBuilder b("t");
        auto r = b.realVar("r");
        b.assign(b.idx(r), b.lit(value));
        Program p = b.finish();
        EXPECT_EQ(printExpr(p, p.top[0]->rhs), text);
        const Program q = parseProgramOrDie(printProgram(p));
        const Expr* lit = q.top[0]->rhs;
        ASSERT_EQ(lit->kind, ExprKind::RealLit) << text;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(lit->rval),
                  std::bit_cast<std::uint64_t>(value))
            << text;
    }
}

TEST(Printer, ArrayBoundsWithLowerBound) {
    ProgramBuilder b("lb");
    b.array("A", ScalarType::Real, {{0, 7}, {1, 4}});
    Program p = b.finish();
    const std::string t = printProgram(p);
    EXPECT_NE(t.find("real A(0:7,4)"), std::string::npos) << t;
}

TEST(Printer, BlockCyclicDirective) {
    ProgramBuilder b("bc");
    auto A = b.realArray("A", {32});
    b.distribute(A, {{DistKind::BlockCyclic, 4}});
    auto i = b.integerVar("i");
    b.doLoop(i, b.lit(std::int64_t{1}), b.lit(std::int64_t{32}),
             [&] { b.assign(b.ref(A, {b.idx(i)}), b.lit(1.0)); });
    Program p = b.finish();
    const std::string t = printProgram(p);
    EXPECT_NE(t.find("cyclic(4)"), std::string::npos) << t;
    // And it parses back with the same distribution.
    Program q = parseProgramOrDie(t);
    ASSERT_EQ(q.distributes.size(), 1u);
    EXPECT_EQ(q.distributes[0].specs[0].kind, DistKind::BlockCyclic);
    EXPECT_EQ(q.distributes[0].specs[0].blockSize, 4);
}

TEST(Printer, NegativeAlignOffset) {
    ProgramBuilder b("off");
    auto A = b.realArray("A", {32});
    auto B = b.realArray("B", {32});
    b.distribute(A, {{DistKind::Block, 0}});
    b.align(B, A, {{AlignDim::Kind::SourceDim, 0, -2, 0}});
    Program p = b.finish();
    const std::string t = printProgram(p);
    EXPECT_NE(t.find("align B(i) with A(i-2)"), std::string::npos) << t;
    Program q = parseProgramOrDie(t);
    ASSERT_EQ(q.aligns.size(), 1u);
    EXPECT_EQ(q.aligns[0].dims[0].offset, -2);
}

TEST(Printer, RandomExpressionRoundTripSemantics) {
    // Build pseudo-random expression trees, print them, parse them back
    // and check the interpreter computes the same value.
    std::uint64_t seed = 12345;
    auto next = [&] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return (seed >> 33) % 1000;
    };
    for (int round = 0; round < 40; ++round) {
        ProgramBuilder b("rand");
        auto r = b.realVar("r");
        std::function<Ex(int)> gen = [&](int depth) -> Ex {
            const auto pick = next();
            if (depth >= 4 || pick % 4 == 0)
                return b.lit(static_cast<double>(pick % 17) + 0.5);
            switch (pick % 5) {
                case 0: return gen(depth + 1) + gen(depth + 1);
                case 1: return gen(depth + 1) - gen(depth + 1);
                case 2: return gen(depth + 1) * gen(depth + 1);
                case 3:
                    return gen(depth + 1) /
                           (gen(depth + 1) + b.lit(20.0));  // avoid /0
                default:
                    return b.call(Intrinsic::Max,
                                  {gen(depth + 1), gen(depth + 1)});
            }
        };
        b.assign(b.idx(r), gen(0));
        Program p = b.finish();
        Interpreter in1(p);
        in1.run();

        Program q = parseProgramOrDie(printProgram(p));
        Interpreter in2(q);
        in2.run();
        EXPECT_DOUBLE_EQ(in1.scalar("r"), in2.scalar("r"))
            << printProgram(p);
    }
}

}  // namespace
}  // namespace phpf
