// Reproduces Table 3 of the paper: APPSP (NAS pseudo-application),
// n = 64, under four variants:
//   1-D, No Array Priv — (*,*,*,block), work array c replicated
//   1-D, Priv          — c fully privatized w.r.t. the k loop
//   2-D, No Partial    — (*,*,block,block); full privatization of c is
//                         invalid (AlignLevel 2 > 1), c stays replicated
//   2-D, Partial Priv  — Section 3.2: c partitioned along the j grid
//                         dim, privatized along the k grid dim
//
// Paper shape: without privatization execution time is prohibitive
// (they aborted after a day); with 2-D + partial privatization the
// program starts faster at few processors but scales worse than the
// 1-D version (per-nest messages are not combined), so the 1-D version
// overtakes it at higher processor counts.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

constexpr std::int64_t kN = 64;
constexpr std::int64_t kIters = 50;

std::vector<int> grid2d(int procs) {
    int a = 1, b = procs;
    while (a * 2 <= b / 2) {
        a *= 2;
        b /= 2;
    }
    return {a, b};
}

MappingOptions variantOpts(int variant) {
    MappingOptions m;
    m.arrayPrivatization = variant == 1 || variant >= 3;
    m.partialPrivatization = variant >= 3;
    return m;
}

CostBreakdown runVariant(int variant, int procs) {
    const bool oneD = variant < 2;
    const MappingOptions m = variantOpts(variant);
    // Variant 4: the paper's suggested fix for the 2-D version —
    // global message combining across loop nests.
    CostModel cost;
    cost.combineMessages = variant == 4;
    Program p = programs::appsp(kN, kN, kN, kIters, oneD);
    return predict(p, oneD ? std::vector<int>{procs} : grid2d(procs), m, cost);
}

void printTable() {
    printHeader(
        "Table 3: APPSP on the SP2 model  (n = 64, niter = 50) — "
        "predicted execution time (sec)",
        {"1-D, No Array Priv", "1-D, Priv", "2-D, No Partial",
         "2-D, Partial Priv", "2-D, Partial+Combine"});
    for (int procs : {2, 4, 8, 16}) {
        std::vector<double> row;
        for (int v = 0; v < 5; ++v) row.push_back(runVariant(v, procs).totalSec());
        printRow(procs, row);
    }
    std::printf("\n(The last column adds the global message combining the "
                "paper identifies as phpf's missing optimization.)\n\n");
}

void BM_CompileAppsp(benchmark::State& state) {
    const bool oneD = state.range(0) != 0;
    for (auto _ : state) {
        Program p = programs::appsp(kN, kN, kN, kIters, oneD);
        TargetConfig opts;
        opts.gridExtents = oneD ? std::vector<int>{16} : std::vector<int>{4, 4};
        Compilation c = Compiler::compile(p, opts);
        benchmark::DoNotOptimize(c.lowering().commOps().size());
    }
}
BENCHMARK(BM_CompileAppsp)->Arg(0)->Arg(1);

// The simulator on the perfbench sim_kernels cells (16^3, niter = 2,
// 16 procs): construction plus run(), per Table 3 variant.
void BM_SimulateAppsp(benchmark::State& state) {
    const int variant = static_cast<int>(state.range(0));
    const bool oneD = variant < 2;
    Program p = programs::appsp(16, 16, 16, 2, oneD);
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = oneD ? std::vector<int>{16} : grid2d(16);
    opts.costModel.combineMessages = variant == 4;
    passes.mapping = variantOpts(variant);
    const Compilation c = Compiler::compile(p, opts, passes);
    for (auto _ : state) benchmark::DoNotOptimize(simulateSeeded(c));
}
BENCHMARK(BM_SimulateAppsp)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    printTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
