// Reproduces Table 1 of the paper: TOMCATV on an SP2 model, (*,block)
// distribution, n = 513, under three compiler levels:
//   1. Replication        — no scalar privatization (every scalar
//                            replicated; statements execute everywhere)
//   2. Producer Alignment — privatization, but every scalar aligned
//                            with a partitioned producer reference
//   3. Selected Alignment — the full Fig. 3 algorithm of the paper
//
// The paper reports wall-clock seconds on 16 SP2 thin nodes; we report
// the analytic SP2-model prediction. The shape to reproduce: replication
// is orders of magnitude slower and does not scale; producer alignment
// suffers inner-loop communication; selected alignment scales.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

constexpr std::int64_t kN = 513;
constexpr std::int64_t kIters = 100;

MappingOptions variantOpts(int variant) {
    MappingOptions m;
    switch (variant) {
        case 0:
            m.privatization = false;
            break;
        case 1:
            m.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
            break;
        default:
            break;  // Selected
    }
    return m;
}

void printTable() {
    printHeader(
        "Table 1: TOMCATV on the SP2 model  ((*,block), n = 513) — "
        "predicted execution time (sec)",
        {"Replication", "Producer Alignment", "Selected Alignment"});
    for (int procs : {1, 2, 4, 8, 16}) {
        std::vector<double> row;
        for (int variant : {0, 1, 2}) {
            Program p = programs::tomcatv(kN, kIters);
            row.push_back(predict(p, {procs}, variantOpts(variant)).totalSec());
        }
        printRow(procs, row);
    }
    std::printf("\n");
}

void BM_CompileTomcatv(benchmark::State& state) {
    const int variant = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Program p = programs::tomcatv(kN, kIters);
        TargetConfig opts;
        PassOptions passes;
        opts.gridExtents = {16};
        passes.mapping = variantOpts(variant);
        Compilation c = Compiler::compile(p, opts, passes);
        benchmark::DoNotOptimize(c.lowering().commOps().size());
    }
}
BENCHMARK(BM_CompileTomcatv)->Arg(0)->Arg(1)->Arg(2);

void BM_PredictCostTomcatv(benchmark::State& state) {
    Program p = programs::tomcatv(kN, kIters);
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
BENCHMARK(BM_PredictCostTomcatv);

// The simulator on the perfbench sim_kernels cells (n = 65, niter = 3,
// 16 procs): construction plus run(), per variant.
void BM_SimulateTomcatv(benchmark::State& state) {
    Program p = programs::tomcatv(65, 3);
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = {16};
    passes.mapping = variantOpts(static_cast<int>(state.range(0)));
    const Compilation c = Compiler::compile(p, opts, passes);
    for (auto _ : state) benchmark::DoNotOptimize(simulateSeeded(c));
}
BENCHMARK(BM_SimulateTomcatv)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    printTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
