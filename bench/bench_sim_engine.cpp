// Interpreter vs bytecode-VM execution engine of the SPMD simulator
// (runtime/bytecode.h, runtime/vm.h).
//
// Workload: TOMCATV under the Replication compiler level on 16
// simulated processors (the simulator runs on one thread) — the
// configuration where per-element expression evaluation dominates, so
// the table isolates the engine itself.
//
// Three measured configurations:
//   - interp          tree-walking interpreter, strict merge
//   - bytecode        register-bytecode VM, strict merge
//   - bytecode+relaxed VM with the relaxed reduction-merge mode
//     (commutative combines merge per-processor copies directly and
//     skip the merge-order barrier; benchmarked separately because it
//     is NOT bit-identical for floating-point SUM accumulators)
//
// Two hard gates (exit 1, so CI fails on the bench itself):
//   - strict-mode divergence: the bytecode run must match the
//     interpreter run bit for bit in results and every exposed metric;
//   - throughput floor: the strict bytecode engine must be at least
//     5x faster than the interpreter in the same run (the committed
//     baseline bench/baselines/BENCH_sim_engine.json additionally
//     gates the wall-clock ratio, which is machine-independent).

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

constexpr std::int64_t kN = 65;
constexpr std::int64_t kIters = 3;
constexpr int kProcs = 16;
constexpr double kMinSpeedup = 5.0;
constexpr int kReps = 5;  // best-of to shed scheduler noise

void seedTomcatv(Interpreter& o) {
    for (std::int64_t i = 1; i <= kN; ++i)
        for (std::int64_t j = 1; j <= kN; ++j) {
            o.setElement("x", {i, j},
                         static_cast<double>(i) + 0.1 * static_cast<double>(j));
            o.setElement("y", {i, j},
                         static_cast<double>(j) - 0.05 * static_cast<double>(i));
        }
}

struct SimResult {
    double wall = 0.0;
    std::int64_t transfers = 0;
    std::int64_t events = 0;
    std::int64_t procStmts = 0;
    double imbalance = 0.0;
    double errX = 0.0;
    double errY = 0.0;
    std::unique_ptr<SpmdSimulator> sim;  // kept for result comparison
};

SimResult runOnce(Compilation& c, SimEngine engine, bool relaxed) {
    auto sim = c.simulate({.seed = seedTomcatv,
                           .engine = engine,
                           .relaxedMerge = relaxed});
    SimResult r;
    r.wall = sim->wallSec();
    r.transfers = sim->elementTransfers();
    r.events = sim->messageEvents();
    r.procStmts = sim->statementsExecutedAllProcs();
    r.imbalance = sim->imbalanceRatio();
    r.errX = sim->maxErrorVsOracle("x");
    r.errY = sim->maxErrorVsOracle("y");
    r.sim = std::move(sim);
    return r;
}

/// Fold a fresh rep into the running best-of: keep the fastest wall.
/// Final state is identical across reps (runs are deterministic), so
/// which rep's simulator survives for the comparisons is immaterial.
void takeBest(SimResult& best, SimResult r) {
    if (best.sim == nullptr || r.wall < best.wall)
        best = std::move(r);
}

// Bit-for-bit comparison of the final mesh arrays (the program's
// outputs) between two finished runs.
void requireSameResults(const SimResult& a, const SimResult& b,
                        const char* what) {
    for (const char* name : {"x", "y", "rx", "ry"}) {
        for (std::int64_t i = 1; i <= kN; ++i)
            for (std::int64_t j = 1; j <= kN; ++j) {
                const double va = a.sim->oracle().element(name, {i, j});
                const double vb = b.sim->oracle().element(name, {i, j});
                if (va == vb) continue;
                std::fprintf(stderr,
                             "FATAL: %s: %s(%lld,%lld) differs: "
                             "%.17g vs %.17g\n",
                             what, name, static_cast<long long>(i),
                             static_cast<long long>(j), va, vb);
                std::exit(1);
            }
    }
}

void requireIdentical(const SimResult& interp, const SimResult& bc) {
    requireSameResults(interp, bc, "bytecode vs interp");
    if (bc.transfers == interp.transfers && bc.events == interp.events &&
        bc.procStmts == interp.procStmts &&
        bc.imbalance == interp.imbalance && bc.errX == interp.errX &&
        bc.errY == interp.errY)
        return;
    std::fprintf(stderr,
                 "FATAL: bytecode engine diverged from interpreter "
                 "(transfers %lld vs %lld, events %lld vs %lld)\n",
                 static_cast<long long>(bc.transfers),
                 static_cast<long long>(interp.transfers),
                 static_cast<long long>(bc.events),
                 static_cast<long long>(interp.events));
    std::exit(1);
}

}  // namespace

int main() {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = {kProcs};
    passes.mapping.privatization = false;  // Replication level
    Compilation c = Compiler::compile(p, opts, passes);

    // Interleave the engines' reps round-robin: a scheduler-noise epoch
    // then inflates adjacent reps of EVERY engine instead of one
    // engine's whole block, and the per-engine best-of stays a fair
    // same-conditions comparison.
    SimResult interp, bc, relaxed;
    for (int i = 0; i < kReps; ++i) {
        takeBest(interp, runOnce(c, SimEngine::Interp, false));
        takeBest(bc, runOnce(c, SimEngine::Bytecode, false));
        takeBest(relaxed, runOnce(c, SimEngine::Bytecode, true));
    }
    requireIdentical(interp, bc);
    // Relaxed mode changes combine semantics, not statement-level
    // communication, so the count metrics still have to agree.
    if (relaxed.transfers != interp.transfers ||
        relaxed.events != interp.events ||
        relaxed.procStmts != interp.procStmts) {
        std::fprintf(stderr,
                     "FATAL: relaxed-merge run changed communication "
                     "metrics (transfers %lld vs %lld)\n",
                     static_cast<long long>(relaxed.transfers),
                     static_cast<long long>(interp.transfers));
        return 1;
    }

    const double speedup = interp.wall / bc.wall;
    const double relaxedSpeedup = interp.wall / relaxed.wall;
    printHeader(
        "SPMD simulator engine: TOMCATV Replication  ((*,block), n = " +
            std::to_string(kN) +
            ", 16 procs, 1 thread) — wall sec per engine",
        {"wall_interp_sec", "wall_bytecode_sec", "wall_relaxed_sec",
         "bytecode_speedup", "relaxed_speedup", "bytecode_over_interp_wall"});
    printRow(kProcs, {interp.wall, bc.wall, relaxed.wall, speedup,
                      relaxedSpeedup, bc.wall / interp.wall});
    std::printf("\n");

    if (speedup < kMinSpeedup) {
        std::fprintf(stderr,
                     "FATAL: bytecode engine speedup %.2fx is below the "
                     "%.1fx floor (interp %.4fs, bytecode %.4fs)\n",
                     speedup, kMinSpeedup, interp.wall, bc.wall);
        return 1;
    }
    return 0;
}
