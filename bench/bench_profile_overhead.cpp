// Overhead of the per-statement profiler on the SPMD simulator hot
// path.
//
// Profiling is strictly opt-in: with SimulationRequest::profile unset
// the simulator pays one null check per statement instance. The
// profile's counts are the simulator's own per-statement accounting,
// copied into the profile when the run ends, and every statement takes
// the same path armed or not; an armed run adds only one clock sample
// per StmtProfile::kSampleEvery Assign/If instances. This bench
// measures the same TOMCATV workload in two configurations:
//
//   disabled — no profile (the default every plain run gets)
//   armed    — SimulationRequest::profile: the per-statement profile
//              plus 1-in-kSampleEvery sampled instance timing
//
// and enforces that the armed profiler stays within 2% of the disabled
// run. The overhead is the median of per-pair armed/disabled ratios
// over interleaved pairs, each pair run in alternating order: a pair's
// two runs share the machine's state of the moment, which separate
// per-side medians do not. Re-measure rounds with more pairs absorb
// scheduler noise before the check is treated as a failure. The armed
// run must also reproduce the disabled run's simulator totals exactly —
// and the profile's own totals must match the simulator's — or the
// measurement is worthless and the bench hard-fails.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "obs/profiler.h"

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

RunResult runWith(const Compilation& c, bool profile) {
    SimulationRequest req;
    req.seed = seedTomcatv;
    req.profile = profile;
    auto sim = c.simulate(req);
    if (profile) {
        // The profile's totals are the simulator's totals, always; a
        // mismatch means the per-statement attribution drifted and every
        // number below lies.
        const obs::StmtProfile& prof = *sim->profile();
        std::int64_t procStmts = 0, elements = 0, events = 0;
        for (int s = 0; s < prof.stmtCount(); ++s) {
            procStmts += prof.row(s).procStmts;
            elements += prof.row(s).elements;
            events += prof.row(s).events;
        }
        if (procStmts != sim->statementsExecutedAllProcs() ||
            elements != sim->elementTransfers() ||
            events != sim->messageEvents()) {
            std::fprintf(stderr,
                         "FATAL: profile totals diverged from the "
                         "simulator's own counters\n");
            std::exit(1);
        }
    }
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

struct Overhead {
    double disabledSec = 0.0;  ///< median disabled run
    double armedSec = 0.0;     ///< median armed run
    double pct = 0.0;          ///< median per-pair armed/disabled, in %
};

/// One measurement round of `pairs` interleaved disabled/armed pairs,
/// alternating which run goes first.
Overhead measure(const Compilation& c, int pairs) {
    std::vector<double> disabled, armed, ratios;
    for (int i = 0; i < pairs; ++i) {
        double d = 0.0, a = 0.0;
        if (i % 2 == 0) {
            d = runWith(c, false).wall;
            a = runWith(c, true).wall;
        } else {
            a = runWith(c, true).wall;
            d = runWith(c, false).wall;
        }
        disabled.push_back(d);
        armed.push_back(a);
        ratios.push_back(a / d);
    }
    return {median(disabled), median(armed), 100.0 * (median(ratios) - 1.0)};
}

void printTable() {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    opts.gridExtents = {8};
    Compilation c = Compiler::compile(p, opts);

    // Warm-up + divergence gate. Three pairs: the very first simulated
    // runs of the process are dominated by page faults and lazy
    // allocator growth, which a single pair does not absorb on small
    // CI machines.
    const RunResult base = runWith(c, false);
    requireIdentical(base, runWith(c, true), "profiled");
    for (int i = 0; i < 2; ++i) {
        (void)runWith(c, false);
        (void)runWith(c, true);
    }

    Overhead o = measure(c, 51);
    for (const int pairs : {101, 201}) {
        if (o.pct < 2.0) break;
        // Re-measure with more pairs before declaring a real
        // regression: CI neighbours cause >2% blips that a longer
        // median absorbs.
        o = measure(c, pairs);
    }

    // Stdout shows the walls in µs (a run takes a few ms); the
    // PHPF_BENCH_REPORT row keeps its title and keys, in seconds.
    const std::string title =
        "Profiler overhead: TOMCATV ((*,block), n = " + std::to_string(kN) +
        ", 8 procs) — simulated-run wall";
    BenchReporter::instance().setHeader(
        title + " sec", {"disabled_sec", "armed_sec", "overhead_pct"});
    BenchReporter::instance().row(8, {o.disabledSec, o.armedSec, o.pct});
    std::printf("\n%s\n%-6s  %-14s  %-14s  %s\n%-6d  %-14.1f  %-14.1f  %.2f\n\n",
                title.c_str(), "#P", "disabled_us", "armed_us",
                "overhead_pct", 8, o.disabledSec * 1e6, o.armedSec * 1e6,
                o.pct);

    if (o.pct >= 2.0) {
        std::fprintf(stderr,
                     "FATAL: armed per-statement profiler costs %.2f%% "
                     "(budget < 2%%)\n",
                     o.pct);
        std::exit(1);
    }
}

void BM_SimProfileDisabled(benchmark::State& state) {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    opts.gridExtents = {8};
    Compilation c = Compiler::compile(p, opts);
    for (auto _ : state) {
        const RunResult r = runWith(c, false);
        benchmark::DoNotOptimize(r.transfers);
    }
}

void BM_SimProfileArmed(benchmark::State& state) {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    opts.gridExtents = {8};
    Compilation c = Compiler::compile(p, opts);
    for (auto _ : state) {
        const RunResult r = runWith(c, true);
        benchmark::DoNotOptimize(r.transfers);
    }
}

BENCHMARK(BM_SimProfileDisabled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimProfileArmed)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    printTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
