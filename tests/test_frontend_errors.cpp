#include <gtest/gtest.h>

#include "frontend/parser.h"

namespace phpf {
namespace {

DiagEngine parseExpectingErrors(const std::string& src) {
    DiagEngine diags;
    Parser parser(src, diags);
    (void)parser.parse();
    EXPECT_TRUE(diags.hasErrors()) << "expected errors for:\n" << src;
    return diags;
}

bool mentions(const DiagEngine& d, const std::string& needle) {
    return d.dump().find(needle) != std::string::npos;
}

TEST(FrontendErrors, UnknownDistributeTarget) {
    auto d = parseExpectingErrors(R"(
program bad
!hpf$ distribute Q(block)
end)");
    EXPECT_TRUE(mentions(d, "unknown array q")) << d.dump();
}

TEST(FrontendErrors, UnknownAlignTarget) {
    auto d = parseExpectingErrors(R"(
program bad
  real B(8)
!hpf$ align B(i) with T(i)
end)");
    EXPECT_TRUE(mentions(d, "unknown align target")) << d.dump();
}

TEST(FrontendErrors, UnknownAlignDummy) {
    auto d = parseExpectingErrors(R"(
program bad
  real A(8), B(8)
!hpf$ distribute A(block)
!hpf$ align B(i) with A(j)
end)");
    EXPECT_TRUE(mentions(d, "unknown align dummy")) << d.dump();
}

TEST(FrontendErrors, SubscriptCountMismatch) {
    auto d = parseExpectingErrors(R"(
program bad
  real A(8,8)
  A(3) = 1.0
end)");
    EXPECT_TRUE(mentions(d, "wrong subscript count")) << d.dump();
}

TEST(FrontendErrors, ScalarSubscripted) {
    auto d = parseExpectingErrors(R"(
program bad
  real x
  y = x(3)
end)");
    EXPECT_TRUE(mentions(d, "not an array")) << d.dump();
}

TEST(FrontendErrors, Redeclaration) {
    auto d = parseExpectingErrors(R"(
program bad
  real A(8)
  integer A
end)");
    EXPECT_TRUE(mentions(d, "redeclaration")) << d.dump();
}

TEST(FrontendErrors, NonConstantParameter) {
    auto d = parseExpectingErrors(R"(
program bad
  x = 2.0
  parameter (n = x)
end)");
    EXPECT_TRUE(mentions(d, "constant")) << d.dump();
}

std::string loopWithStep(const std::string& step) {
    return "program steps\n"
           "  parameter (z = 0)\n"
           "  real A(8)\n"
           "  do i = 1, 8, " + step + "\n"
           "    A(i) = 1.0\n"
           "  end do\n"
           "end\n";
}

TEST(FrontendErrors, ZeroDoStepReportedAtTheStep) {
    // A literal, a PARAMETER or a constant expression that is zero.
    for (const char* step : {"0", "z", "2 - 2", "-0"}) {
        SCOPED_TRACE(step);
        auto d = parseExpectingErrors(loopWithStep(step));
        EXPECT_TRUE(mentions(d, "DO step must not be zero")) << d.dump();
        ASSERT_EQ(d.all().size(), 1u) << d.dump();
        EXPECT_EQ(d.all()[0].loc.line, 4);
        EXPECT_EQ(d.all()[0].loc.column, 16);
    }
}

TEST(FrontendErrors, NonzeroAndVariableDoStepsParse) {
    for (const char* step : {"-1", "z + 2", "k"}) {
        SCOPED_TRACE(step);
        DiagEngine diags;
        Parser parser(loopWithStep(step), diags);
        const Program p = parser.parse();
        EXPECT_FALSE(diags.hasErrors()) << diags.dump();
        ASSERT_EQ(p.top.size(), 1u);
        EXPECT_NE(p.top[0]->step, nullptr);
    }
    // The check reads a constant step without folding it.
    DiagEngine diags;
    Parser parser(loopWithStep("z + 2"), diags);
    EXPECT_EQ(parser.parse().top[0]->step->kind, ExprKind::Binary);
}

TEST(FrontendErrors, MissingThenBlockTerminator) {
    parseExpectingErrors(R"(
program bad
  if (1 > 0) then
    x = 1.0
end)");
}

TEST(FrontendErrors, GarbageCharacter) {
    auto d = parseExpectingErrors("program bad\n  x = 1 @ 2\nend\n");
    EXPECT_TRUE(mentions(d, "unexpected character")) << d.dump();
}

TEST(FrontendErrors, UnknownDirective) {
    auto d = parseExpectingErrors(R"(
program bad
!hpf$ teleport A(block)
end)");
    EXPECT_TRUE(mentions(d, "unknown HPF directive")) << d.dump();
}

TEST(FrontendErrors, DiagnosticsCarryLocations) {
    DiagEngine diags;
    Parser parser("program bad\n  x = 1 @ 2\nend\n", diags);
    (void)parser.parse();
    ASSERT_FALSE(diags.all().empty());
    EXPECT_EQ(diags.all()[0].loc.line, 2);
}

TEST(FrontendErrors, GotoUnknownLabelCaughtAtFinalize) {
    DiagEngine diags;
    Parser parser(R"(
program bad
  do i = 1, 4
    go to 999
  end do
end)",
                  diags);
    // The parser accepts the goto syntactically; finalize validates the
    // label and throws InternalError (no such label anywhere).
    EXPECT_THROW((void)parser.parse(), InternalError);
}

}  // namespace
}  // namespace phpf
