#include <gtest/gtest.h>

#include <memory>

#include "driver/compiler.h"
#include "frontend/parser.h"

namespace phpf {
namespace {

// Initial distribution of the seeded inputs: run() places every array
// element on exactly the processors of its owner set
// (ArrayMap::ownerOf) and broadcasts scalars, on either engine. Each
// program's only statement writes the scalar `done`, which is not
// checked, so the per-processor state after run() is the distribution.

/// Seeded value of (symbol, flat): distinct for every element.
double seedValue(SymbolId s, std::int64_t flat) {
    return 1000.0 * static_cast<double>(s + 1) + static_cast<double>(flat) +
           0.25;
}

/// Column-major subscripts of element `flat` of `sym`.
std::vector<std::int64_t> subscriptsOf(const Symbol& sym, std::int64_t flat) {
    std::vector<std::int64_t> idx;
    for (const ArrayDim& d : sym.dims) {
        idx.push_back(d.lb + flat % d.extent());
        flat /= d.extent();
    }
    return idx;
}

Compilation compileSource(const std::string& src, std::vector<int> grid) {
    DiagEngine diags;
    Parser parser(src, diags);
    auto prog = std::make_unique<Program>(parser.parse());
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    TargetConfig opts;
    opts.gridExtents = std::move(grid);
    Compilation c = Compiler::compile(*prog, opts);
    c.adoptProgram(std::move(prog));
    return c;
}

/// For every element and processor: valid exactly where the owner map
/// places the element, holding the seeded value wherever valid.
void expectDistributionMatchesOwnerMap(const Compilation& c) {
    const Program& prog = c.lowering().program();
    const DataMapping& dm = c.lowering().dataMapping();
    const ProcGrid& grid = dm.grid();
    const auto seed = [&](Interpreter& o) {
        for (const Symbol& s : prog.symbols)
            for (std::int64_t f = 0; f < s.elementCount(); ++f)
                o.store().set(s.id, f, seedValue(s.id, f));
    };
    for (const SimEngine engine : {SimEngine::Interp, SimEngine::Bytecode}) {
        SCOPED_TRACE(simEngineName(engine));
        SimulationRequest req;
        req.seed = seed;
        req.engine = engine;
        auto sim = c.simulate(req);
        std::int64_t held = 0;
        for (const Symbol& s : prog.symbols) {
            if (s.name == "done") continue;
            for (std::int64_t f = 0; f < s.elementCount(); ++f) {
                // Scalars are broadcast whatever their mapping.
                const GridSet owners =
                    s.isArray()
                        ? dm.mapOf(s.id).ownerOf(subscriptsOf(s, f), grid)
                        : GridSet{std::vector<int>(
                              static_cast<size_t>(grid.rank()), -1)};
                for (int p = 0; p < grid.totalProcs(); ++p) {
                    const bool valid = sim->validOn(p, s.name, f);
                    ASSERT_EQ(valid, owners.contains(grid.coordsOf(p)))
                        << s.name << " flat " << f << " on processor " << p;
                    if (!valid) continue;
                    ++held;
                    EXPECT_EQ(sim->valueOn(p, s.name, f), seedValue(s.id, f))
                        << s.name << " flat " << f << " on processor " << p;
                }
            }
        }
        EXPECT_GT(held, 0);
    }
}

/// Processors holding element `flat` of `name` after the distribution.
int holders(const Compilation& c, const std::string& name, std::int64_t flat) {
    auto sim = c.simulate({});
    int n = 0;
    for (int p = 0; p < sim->procCount(); ++p) n += sim->validOn(p, name, flat);
    return n;
}

TEST(SimDistribution, BlockCyclicAndBlockCyclicOneDimensional) {
    const Compilation c = compileSource(R"(program dist
  real a(17), b(17), c(17)
!hpf$ distribute (block) :: a
!hpf$ distribute (cyclic) :: b
!hpf$ distribute (cyclic(3)) :: c
  done = 1.0
end
)",
                                        {4});
    expectDistributionMatchesOwnerMap(c);
    EXPECT_EQ(holders(c, "c", 16), 1);
}

TEST(SimDistribution, AlignOffsetsClampAtTheTemplateEdge) {
    // u(16) aligns with t(17) and v(1) with t(0), both past the template:
    // the owner clamps to the edge processor.
    const Compilation c = compileSource(R"(program dist
  real t(16), u(16), v(16)
!hpf$ distribute (block) :: t
!hpf$ align u(i) with t(i+1)
!hpf$ align v(i) with t(i-1)
  done = 1.0
end
)",
                                        {4});
    const DataMapping& dm = c.lowering().dataMapping();
    const Program& prog = c.lowering().program();
    EXPECT_EQ(dm.mapOf(prog.findSymbol("u")).dims[0].alignOffset, 1);
    EXPECT_EQ(dm.mapOf(prog.findSymbol("v")).dims[0].alignOffset, -1);
    expectDistributionMatchesOwnerMap(c);
}

TEST(SimDistribution, BlockStarAndStarCyclicTwoDimensional) {
    expectDistributionMatchesOwnerMap(compileSource(R"(program dist
  real m(9, 5), w(5, 9)
!hpf$ distribute (block, *) :: m
!hpf$ distribute (*, cyclic) :: w
  done = 1.0
end
)",
                                                    {4}));
}

TEST(SimDistribution, ArrayOverOneDimensionOfATwoDimensionalGrid) {
    const char* src = R"(program dist
  real a(10), m(6, 7), t(6, 7)
!hpf$ distribute (block) :: a
!hpf$ distribute (*, cyclic(2)) :: m
!hpf$ distribute (block, cyclic) :: t
  done = 1.0
end
)";
    for (const std::vector<int>& grid :
         {std::vector<int>{2, 2}, std::vector<int>{4, 4}}) {
        SCOPED_TRACE(grid[0]);
        const Compilation c = compileSource(src, grid);
        expectDistributionMatchesOwnerMap(c);
        // Replicated along the second grid dimension.
        EXPECT_EQ(holders(c, "a", 0), grid[1]);
    }
}

TEST(SimDistribution, PinnedCoordinateFromAlignToAConstant) {
    // a pins the second grid dim to the owner of t's column 7; r is
    // replicated along the first and pinned to the owner of column 2.
    const Compilation c = compileSource(R"(program dist
  real t(8, 8), a(8), r(8)
!hpf$ distribute (block, block) :: t
!hpf$ align a(i) with t(i, 7)
!hpf$ align r(i) with t(*, 2)
  done = 1.0
end
)",
                                        {2, 2});
    const DataMapping& dm = c.lowering().dataMapping();
    const Program& prog = c.lowering().program();
    EXPECT_EQ(dm.mapOf(prog.findSymbol("a")).fixedCoord,
              (std::vector<int>{-1, 1}));
    EXPECT_EQ(dm.mapOf(prog.findSymbol("r")).fixedCoord,
              (std::vector<int>{-1, 0}));
    expectDistributionMatchesOwnerMap(c);
    EXPECT_EQ(holders(c, "a", 0), 1);
    EXPECT_EQ(holders(c, "r", 0), 2);
}

TEST(SimDistribution, FullyReplicatedArrayAndScalarsAreEverywhere) {
    const char* src = R"(program dist
  real z(7), q
  integer k
  done = 1.0
end
)";
    for (const std::vector<int>& grid :
         {std::vector<int>{4}, std::vector<int>{2, 2}}) {
        const Compilation c = compileSource(src, grid);
        EXPECT_TRUE(c.lowering()
                        .dataMapping()
                        .mapOf(c.lowering().program().findSymbol("z"))
                        .fullyReplicated());
        expectDistributionMatchesOwnerMap(c);
        EXPECT_EQ(holders(c, "z", 6), 4);
        EXPECT_EQ(holders(c, "k", 0), 4);
    }
}

}  // namespace
}  // namespace phpf
