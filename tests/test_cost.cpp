#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "ir/builder.h"
#include "programs/programs.h"

namespace phpf {
namespace {

CostBreakdown costOf(Program& p, std::vector<int> grid, MappingOptions m = {}) {
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = std::move(grid);
    passes.mapping = m;
    return Compiler::compile(p, opts, passes).predictCost();
}

TEST(Cost, SingleProcessorHasNoComm) {
    for (int id = 0; id < 3; ++id) {
        Program p = id == 0   ? programs::fig1(64)
                    : id == 1 ? programs::dgefa(32)
                              : programs::tomcatv(16, 2);
        const CostBreakdown cb = costOf(p, {1});
        EXPECT_EQ(cb.commSec, 0.0) << p.name;
        EXPECT_EQ(cb.messageEvents, 0) << p.name;
        EXPECT_GT(cb.computeSec, 0.0) << p.name;
    }
}

TEST(Cost, ComputeScalesWithProcessors) {
    double prev = 0.0;
    for (int procs : {1, 2, 4, 8}) {
        Program p = programs::tomcatv(64, 2);
        const double c = costOf(p, {procs}).computeSec;
        if (procs > 1) {
            EXPECT_LT(c, prev * 0.75) << procs;
        }
        prev = c;
    }
}

// A loop bound that reads a scalar constant propagation knows prices
// the loop at that trip count, exactly as the literal bound does: on
// the affine path (m) and on the tree fallback (m / 2).
TEST(Cost, ConstantScalarBoundPricesItsTrips) {
    const auto cost = [](const std::string& bound) {
        Program p = parseProgramOrDie(R"(program cb
  real a(64)
!hpf$ distribute (block) :: a
  m = 64
  do i = 1, )" + bound + R"(
    a(i) = a(i) + 1.0
  end do
end)");
        TargetConfig target;
        target.gridExtents = {4};
        return Compiler::compile(p, target).predictCost();
    };
    const CostBreakdown literal = cost("64");
    const CostBreakdown viaScalar = cost("m");
    EXPECT_EQ(viaScalar.computeSec, literal.computeSec);
    EXPECT_EQ(viaScalar.totalSec(), literal.totalSec());
    const CostBreakdown half = cost("32");
    const CostBreakdown viaTree = cost("m / 2");
    EXPECT_EQ(viaTree.computeSec, half.computeSec);
    EXPECT_EQ(viaTree.totalSec(), half.totalSec());
    EXPECT_GT(literal.computeSec, half.computeSec);
}

TEST(Cost, ComputeScalesLinearlyForPerfectlyParallelLoop) {
    // A loop with owner-computes statements only: compute at P procs
    // should be ~1/P of sequential.
    auto make = [] {
        ProgramBuilder b("par");
        auto A = b.realArray("A", {256});
        auto i = b.integerVar("i");
        b.distribute(A, {{DistKind::Block, 0}});
        b.doLoop(i, b.lit(std::int64_t{1}), b.lit(std::int64_t{256}), [&] {
            b.assign(b.ref(A, {b.idx(i)}),
                     b.ref(A, {b.idx(i)}) * b.lit(2.0) + b.lit(1.0));
        });
        return b.finish();
    };
    Program p1 = make();
    Program p8 = make();
    const double c1 = costOf(p1, {1}).computeSec;
    const double c8 = costOf(p8, {8}).computeSec;
    EXPECT_NEAR(c8, c1 / 8.0, c1 * 0.01);
}

TEST(Cost, MemoizedAndIteratedLoopsAgree) {
    // A rectangular nest is memoized; forcing iteration via a
    // bound-dependent inner loop must not change the total for an
    // equivalent iteration space.
    auto rect = [] {
        ProgramBuilder b("rect");
        auto A = b.realArray("A", {64, 64});
        auto i = b.integerVar("i");
        auto j = b.integerVar("j");
        b.distribute(A, {{DistKind::Serial, 0}, {DistKind::Block, 0}});
        b.doLoop(j, b.lit(std::int64_t{1}), b.lit(std::int64_t{64}), [&] {
            b.doLoop(i, b.lit(std::int64_t{1}), b.lit(std::int64_t{64}), [&] {
                b.assign(b.ref(A, {b.idx(i), b.idx(j)}), b.lit(1.0));
            });
        });
        return b.finish();
    };
    // Same space as two triangles: do j; do i = 1, j  and  do i = j+1, 64.
    auto tri = [] {
        ProgramBuilder b("tri");
        auto A = b.realArray("A", {64, 64});
        auto i = b.integerVar("i");
        auto j = b.integerVar("j");
        b.distribute(A, {{DistKind::Serial, 0}, {DistKind::Block, 0}});
        b.doLoop(j, b.lit(std::int64_t{1}), b.lit(std::int64_t{64}), [&] {
            b.doLoop(i, b.lit(std::int64_t{1}), b.idx(j), [&] {
                b.assign(b.ref(A, {b.idx(i), b.idx(j)}), b.lit(1.0));
            });
            b.doLoop(i, b.idx(j) + b.lit(std::int64_t{1}),
                     b.lit(std::int64_t{64}), [&] {
                         b.assign(b.ref(A, {b.idx(i), b.idx(j)}), b.lit(1.0));
                     });
        });
        return b.finish();
    };
    Program pr = rect();
    Program pt = tri();
    const double cr = costOf(pr, {4}).computeSec;
    const double ct = costOf(pt, {4}).computeSec;
    EXPECT_NEAR(cr, ct, cr * 0.01);
}

TEST(Cost, VectorizedShiftBeatsPerIterationMessages) {
    // A hoistable shift (read-only source) must cost far less than an
    // unhoistable one (source written in the loop).
    auto make = [](bool writeSource) {
        ProgramBuilder b("shifty");
        auto A = b.realArray("A", {512});
        auto B = b.realArray("B", {512});
        auto i = b.integerVar("i");
        b.distribute(A, {{DistKind::Block, 0}});
        b.alignIdentity(B, A);
        b.doLoop(i, b.lit(std::int64_t{2}), b.lit(std::int64_t{511}), [&] {
            b.assign(b.ref(A, {b.idx(i)}),
                     b.ref(B, {b.idx(i) - b.lit(std::int64_t{1})}));
            if (writeSource)
                b.assign(b.ref(B, {b.idx(i)}), b.ref(A, {b.idx(i)}));
        });
        return b.finish();
    };
    Program hoisted = make(false);
    Program pinned = make(true);
    const double ch = costOf(hoisted, {8}).commSec;
    const double cp = costOf(pinned, {8}).commSec;
    EXPECT_GT(cp, ch);
}

TEST(Cost, ReductionCombineChargedPerOuterIteration) {
    Program p = programs::fig5(64);
    TargetConfig opts;
    opts.gridExtents = {2, 2};
    Compilation c = Compiler::compile(p, opts);
    bool sawCombine = false;
    for (const CommOp& op : c.lowering().commOps())
        if (op.isReductionCombine) {
            sawCombine = true;
            EXPECT_EQ(op.placementLevel, 1);  // once per i iteration
            ASSERT_EQ(op.combineGridDims.size(), 1u);
            EXPECT_EQ(op.combineGridDims[0], 1);
        }
    EXPECT_TRUE(sawCombine);
    const CostBreakdown cb = c.predictCost();
    EXPECT_GT(cb.messageEvents, 0);
}

TEST(Cost, HigherLatencyRaisesCommOnly) {
    Program p1 = programs::tomcatv(64, 2);
    TargetConfig opts;
    opts.gridExtents = {8};
    Compilation c1 = Compiler::compile(p1, opts);
    const CostBreakdown base = c1.predictCost();

    Program p2 = programs::tomcatv(64, 2);
    TargetConfig opts2 = opts;
    opts2.costModel.alphaSec *= 10.0;
    Compilation c2 = Compiler::compile(p2, opts2);
    const CostBreakdown slow = c2.predictCost();

    EXPECT_DOUBLE_EQ(slow.computeSec, base.computeSec);
    EXPECT_GT(slow.commSec, base.commSec);
}

TEST(Cost, EmptyLoopCostsNothing) {
    ProgramBuilder b("empty");
    auto A = b.realArray("A", {8});
    auto i = b.integerVar("i");
    b.distribute(A, {{DistKind::Block, 0}});
    b.doLoop(i, b.lit(std::int64_t{5}), b.lit(std::int64_t{4}),
             [&] { b.assign(b.ref(A, {b.idx(i)}), b.lit(1.0)); });
    Program p = b.finish();
    const CostBreakdown cb = costOf(p, {4});
    EXPECT_EQ(cb.totalSec(), 0.0);
}

TEST(Cost, NegativeStepLoop) {
    ProgramBuilder b("down");
    auto A = b.realArray("A", {64});
    auto i = b.integerVar("i");
    b.distribute(A, {{DistKind::Block, 0}});
    b.doLoop(i, b.lit(std::int64_t{64}), b.lit(std::int64_t{1}),
             b.lit(std::int64_t{-1}),
             [&] { b.assign(b.ref(A, {b.idx(i)}), b.lit(1.0)); });
    Program p = b.finish();
    const CostBreakdown cb = costOf(p, {4});
    EXPECT_GT(cb.computeSec, 0.0);
}

}  // namespace
}  // namespace phpf
