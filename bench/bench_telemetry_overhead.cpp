// Overhead of the telemetry layer (per-phase histograms) on the SPMD
// simulator hot path.
//
// Telemetry is strictly opt-in: with no registry attached the simulator
// pays one null check per phase. This bench measures the same TOMCATV
// workload in two configurations:
//
//   disabled — setTelemetry(nullptr): the default every
//              non-instrumented run gets
//   armed    — a live MetricRegistry (per-phase histograms)
//
// and enforces that the ARMED-but-idle layer stays within 2% of the
// disabled run (median of interleaved runs; one re-measure round with
// more repetitions absorbs scheduler noise before the check is treated
// as a failure). Any result divergence between the configurations is a
// hard failure — overhead numbers from a diverged run are worthless.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

constexpr std::int64_t kN = 33;
constexpr std::int64_t kIters = 2;

void seedTomcatv(Interpreter& o) {
    for (std::int64_t i = 1; i <= kN; ++i)
        for (std::int64_t j = 1; j <= kN; ++j) {
            o.setElement("x", {i, j},
                         static_cast<double>(i) + 0.1 * static_cast<double>(j));
            o.setElement("y", {i, j},
                         static_cast<double>(j) - 0.05 * static_cast<double>(i));
        }
}

struct RunResult {
    double wall = 0.0;
    std::int64_t transfers = 0;
    std::int64_t events = 0;
    std::int64_t procStmts = 0;
};

RunResult runWith(const Compilation& c, obs::MetricRegistry* metrics) {
    SimulationRequest req;
    req.seed = seedTomcatv;
    req.metrics = metrics;
    auto sim = c.simulate(req);
    return {sim->wallSec(), sim->elementTransfers(), sim->messageEvents(),
            sim->statementsExecutedAllProcs()};
}

void requireIdentical(const RunResult& base, const RunResult& r,
                      const char* what) {
    if (r.transfers == base.transfers && r.events == base.events &&
        r.procStmts == base.procStmts)
        return;
    std::fprintf(stderr,
                 "FATAL: %s run diverged from the disabled run "
                 "(transfers %lld vs %lld)\n",
                 what, static_cast<long long>(r.transfers),
                 static_cast<long long>(base.transfers));
    std::exit(1);
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/// One measurement round: `reps` interleaved disabled/armed runs
/// (interleaving cancels slow drift — thermal, competing CI tenants),
/// medians of each.
void measure(const Compilation& c, obs::MetricRegistry& reg, int reps,
             double* disabledSec, double* armedSec) {
    std::vector<double> disabled, armed;
    for (int i = 0; i < reps; ++i) {
        disabled.push_back(runWith(c, nullptr).wall);
        armed.push_back(runWith(c, &reg).wall);
    }
    *disabledSec = median(disabled);
    *armedSec = median(armed);
}

void printTable() {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    opts.gridExtents = {8};
    Compilation c = Compiler::compile(p, opts);

    obs::MetricRegistry reg;

    // Warm-up + divergence gate.
    const RunResult base = runWith(c, nullptr);
    requireIdentical(base, runWith(c, &reg), "armed-telemetry");

    double disabledSec = 0, armedSec = 0;
    measure(c, reg, 7, &disabledSec, &armedSec);
    double overheadPct = 100.0 * (armedSec - disabledSec) / disabledSec;
    if (overheadPct >= 2.0) {
        // One re-measure with more repetitions before declaring a real
        // regression: CI neighbours cause >2% blips that a longer
        // median absorbs.
        measure(c, reg, 11, &disabledSec, &armedSec);
        overheadPct = 100.0 * (armedSec - disabledSec) / disabledSec;
    }

    printHeader(
        "Telemetry overhead: TOMCATV ((*,block), n = " + std::to_string(kN) +
            ", 8 procs) — simulated-run wall sec",
        {"disabled_sec", "armed_sec", "overhead_pct"});
    printRow(8, {disabledSec, armedSec, overheadPct});
    std::printf("\n");

    if (overheadPct >= 2.0) {
        std::fprintf(stderr,
                     "FATAL: armed-but-idle telemetry costs %.2f%% "
                     "(budget < 2%%)\n",
                     overheadPct);
        std::exit(1);
    }
}

void BM_SimTelemetryDisabled(benchmark::State& state) {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    opts.gridExtents = {8};
    Compilation c = Compiler::compile(p, opts);
    for (auto _ : state) {
        const RunResult r = runWith(c, nullptr);
        benchmark::DoNotOptimize(r.transfers);
    }
}

void BM_SimTelemetryArmed(benchmark::State& state) {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    opts.gridExtents = {8};
    Compilation c = Compiler::compile(p, opts);
    obs::MetricRegistry reg;
    for (auto _ : state) {
        const RunResult r = runWith(c, &reg);
        benchmark::DoNotOptimize(r.transfers);
    }
}

BENCHMARK(BM_SimTelemetryDisabled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimTelemetryArmed)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    printTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
