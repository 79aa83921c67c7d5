// Reproduces Table 2 of the paper: DGEFA (LINPACK Gaussian elimination
// with partial pivoting), (*,cyclic), n = 1000.
//
//   Default   — the MAXLOC reduction scalars t and l stay replicated:
//               every processor executes the pivot search redundantly
//               and the pivot column is broadcast each step.
//   Alignment — Section 2.3: the reduction results are aligned with
//               A(i,k) in the non-reduction grid dims, confining the
//               pivot search to the owner of column k.
//
// The paper's shape: the communication overhead of the default version
// stays roughly constant as P grows, so it accounts for an increasing
// share of execution time; the aligned version wins consistently.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

constexpr std::int64_t kN = 1000;

void printTable() {
    printHeader(
        "Table 2: DGEFA on the SP2 model  ((*,cyclic), n = 1000) — "
        "predicted execution time (sec)",
        {"Default", "Alignment"});
    for (int procs : {1, 2, 4, 8, 16}) {
        std::vector<double> row;
        for (bool align : {false, true}) {
            MappingOptions m;
            m.reductionAlignment = align;
            Program p = programs::dgefa(kN);
            row.push_back(predict(p, {procs}, m).totalSec());
        }
        printRow(procs, row);
    }
    std::printf("\n");
}

void BM_CompileDgefa(benchmark::State& state) {
    for (auto _ : state) {
        Program p = programs::dgefa(kN);
        TargetConfig opts;
        opts.gridExtents = {16};
        Compilation c = Compiler::compile(p, opts);
        benchmark::DoNotOptimize(c.lowering().commOps().size());
    }
}
BENCHMARK(BM_CompileDgefa);

void BM_PredictCostDgefa(benchmark::State& state) {
    Program p = programs::dgefa(kN);
    TargetConfig opts;
    opts.gridExtents = {16};
    Compilation c = Compiler::compile(p, opts);
    // Through the Target, not c.predictCost(): the Compilation memoizes
    // its pricing, and this must time the evaluator's walk every time.
    const Target& target = c.compileTarget();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            target.predictCost(c.lowering(), c.target()).totalSec());
    }
}
BENCHMARK(BM_PredictCostDgefa);

// The same walk with per-statement / per-op attribution (--cost,
// calibration): it should stay within a small factor of the plain walk.
void BM_PredictDetailedDgefa(benchmark::State& state) {
    Program p = programs::dgefa(kN);
    TargetConfig opts;
    opts.gridExtents = {16};
    Compilation c = Compiler::compile(p, opts);
    const Target& target = c.compileTarget();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            target.predictDetailed(c.lowering(), c.target()).totals.totalSec());
    }
}
BENCHMARK(BM_PredictDetailedDgefa);

// The simulator on the perfbench sim_kernels cells (n = 64, 16 procs):
// construction plus run(); Arg 1 aligns the reduction.
void BM_SimulateDgefa(benchmark::State& state) {
    Program p = programs::dgefa(64);
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = {16};
    passes.mapping.reductionAlignment = state.range(0) != 0;
    const Compilation c = Compiler::compile(p, opts, passes);
    for (auto _ : state) benchmark::DoNotOptimize(simulateSeeded(c));
}
BENCHMARK(BM_SimulateDgefa)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    printTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
