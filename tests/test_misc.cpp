#include <gtest/gtest.h>

#include <tuple>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "programs/programs.h"
#include "spmd/cost_report.h"

namespace phpf {
namespace {

TEST(CostReport, AttributionSumsToTotals) {
    Program p = programs::tomcatv(32, 3);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    const CostReport report = buildCostReport(c.lowering(), opts.costModel);
    double compute = 0.0, comm = 0.0;
    for (const CostItem& item : report.items)
        (item.isComm ? comm : compute) += item.seconds;
    EXPECT_NEAR(compute, report.total.computeSec,
                report.total.computeSec * 1e-9 + 1e-12);
    EXPECT_NEAR(comm, report.total.commSec, report.total.commSec * 1e-9 + 1e-12);
    // Items are sorted descending.
    for (size_t i = 1; i < report.items.size(); ++i)
        EXPECT_GE(report.items[i - 1].seconds, report.items[i].seconds);
}

TEST(CostReport, EqualCostsOrderByStatementThenOp) {
    // TOMCATV's statements fall into a few cost classes, so many items
    // tie; their order must not depend on hash-table iteration.
    Program p = programs::tomcatv(65, 3);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    const CostReport report = buildCostReport(c.lowering(), opts.costModel);
    int ties = 0;
    for (size_t i = 1; i < report.items.size(); ++i) {
        const CostItem& a = report.items[i - 1];
        const CostItem& b = report.items[i];
        ASSERT_GE(a.seconds, b.seconds);
        if (a.seconds != b.seconds) continue;
        ++ties;
        EXPECT_LT(std::tuple(a.stmt->id, a.isComm, a.op),
                  std::tuple(b.stmt->id, b.isComm, b.op));
    }
    EXPECT_GT(ties, 0);
    for (const CostItem& item : report.items)
        EXPECT_EQ(item.op >= 0, item.isComm) << item.what;
}

TEST(CostReport, RendersTopItems) {
    Program p = programs::fig1(32);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    const CostReport report = buildCostReport(c.lowering(), opts.costModel);
    const std::string text = report.str(p, 3);
    EXPECT_NE(text.find("comm "), std::string::npos);
    EXPECT_NE(text.find("total:"), std::string::npos);
}

TEST(FrontendForms, ProcessorsWithExplicitExtents) {
    Program p = parseProgramOrDie(R"(
program grids
  real A(8,8)
!hpf$ processors P(2,2)
!hpf$ distribute A(block,block)
  A(1,1) = 0.0
end)");
    EXPECT_EQ(p.gridRank, 2);
}

TEST(FrontendForms, CommentsAndBlankLines) {
    Program p = parseProgramOrDie(R"(
! leading comment
program c1

  real A(4)   ! trailing comment
  ! interior comment

  A(1) = 2.0
end)");
    ASSERT_EQ(p.top.size(), 1u);
}

TEST(FrontendForms, DotStyleRelationalOperators) {
    Program p = parseProgramOrDie(R"(
program dots
  x = 3.0
  if (x .gt. 1.0 .and. x .le. 5.0) then
    r = 1.0
  end if
  if (x .ne. 0.0) then
    r = r + 1.0
  end if
end)");
    Interpreter in(p);
    in.run();
    EXPECT_DOUBLE_EQ(in.scalar("r"), 2.0);
}

TEST(FrontendForms, EnddoAndEndifSpellings) {
    Program p = parseProgramOrDie(R"(
program sp
  r = 0.0
  do i = 1, 3
    if (i == 2) then
      r = r + 10.0
    endif
    r = r + 1.0
  enddo
end)");
    Interpreter in(p);
    in.run();
    EXPECT_DOUBLE_EQ(in.scalar("r"), 13.0);
}

TEST(Options, VariantSwitchesAreIndependent) {
    // Flipping one option must not disturb unrelated decisions.
    Program base = programs::dgefa(16);
    TargetConfig o1;
    o1.gridExtents = {4};
    Compilation c1 = Compiler::compile(base, o1);
    Program other = programs::dgefa(16);
    TargetConfig o2 = o1;
    PassOptions po2;
    po2.mapping.controlFlowPrivatization = false;  // unrelated to tmp
    Compilation c2 = Compiler::compile(other, o2, po2);

    auto tmpDecision = [](Compilation& c) {
        const SymbolId sym = c.program().findSymbol("tmp");
        ScalarMapKind kind = ScalarMapKind::Replicated;
        c.program().forEachStmt([&](Stmt* s) {
            if (s->kind == StmtKind::Assign &&
                s->lhs->kind == ExprKind::VarRef && s->lhs->sym == sym) {
                const auto* d = c.mappingPass().decisions().forDef(
                    c.ssa().defIdOfAssign(s));
                if (d != nullptr) kind = d->kind;
            }
        });
        return kind;
    };
    EXPECT_EQ(tmpDecision(c1), tmpDecision(c2));
}

TEST(Options, GridRankOneCollapsesTwoDimPrograms) {
    // A (block,block) program on a rank-1 grid folds the second dim to
    // serial rather than failing.
    Program p = programs::fig5(16);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    const ArrayMap& m = c.dataMapping().mapOf(p.findSymbol("A"));
    EXPECT_EQ(m.gridDimOf(0), 0);
    EXPECT_EQ(m.gridDimOf(1), -1);
}

}  // namespace
}  // namespace phpf
