// phpfc — command-line driver for the mini-HPF compiler.
//
//   phpfc FILE.hpf [--procs NxM] [--report] [--lower] [--cost]
//         [--report=FILE.json] [--trace=FILE.json] [--no-sim]
//         [--profile] [--profile-folded=FILE.folded]
//         [--no-privatization] [--producer-only] [--no-reduction-align]
//         [--no-array-priv] [--no-partial-priv] [--no-cf-priv]
//   phpfc --builtin=NAME ...  (tomcatv, dgefa, appsp, ... instead of a file)
//   phpfc --batch=JOBS.json [--workers=N] [--cache-capacity=N]
//         [--profile]
//
// Parses the program, runs the privatization mapping pass, and prints
// the requested stages. With no stage flags, prints everything.
// `--report=FILE` writes the machine-readable JSON run report (pass
// timings, decision records with rejected-alternative costs, cost
// prediction, simulation metrics); `--trace=FILE` writes the run's
// spans (parse, each pass, simulate) as a Chrome trace_event file
// openable in chrome://tracing / Perfetto.
//
// `--batch=JOBS.json` runs a jobs file (program × grid × option
// variants) through the compile service and emits one JSONL row per
// job on stdout, plus a final {"summary": true, ...} row with the
// service counts (requests, compiles, cache hits/misses/evictions,
// queue state). `--workers=0` (the default) sizes the
// pool from the hardware and `--cache-capacity=0` keeps the default
// capacity; a negative count, or a number with trailing characters
// (`--workers=1x`, `--procs 4abc`), is a usage error.
//
// Exit codes: 0 ok, 1 failures (a parse error, a simulation fault, a
// failed batch job), 2 usage.
//
// Profiling: `--profile` arms the per-statement profiler inside the
// functional simulation; the run report gains "profile" and
// "calibration" sections, and `--profile-folded=FILE` writes
// flamegraph.pl-ready collapsed stacks weighted by estimated
// per-statement self time. In batch mode `--profile` turns on the
// profiled simulation for every job (also settable per job via the
// jobs file's "profile" field). `--builtin=NAME` compiles a builtin
// kernel (the same names the batch runner accepts) instead of a file.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <iostream>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "ir/printer.h"
#include "obs/calibration.h"
#include "obs/chrome_trace.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "spmd/cost_report.h"
#include "spmd/spmd_text.h"

using namespace phpf;

namespace {

/// All of `text` as an int. std::stoi alone stops at the first
/// non-digit, so "4abc" would read as 4; trailing characters throw
/// std::invalid_argument here, like a non-numeric value does.
int wholeInt(const std::string& text) {
    std::size_t used = 0;
    const int v = std::stoi(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
}

/// wholeInt with CLI-grade failure: a non-numeric flag value exits 2
/// with the offending argument instead of an uncaught throw.
int intFlag(const std::string& arg, std::size_t prefixLen) {
    try {
        return wholeInt(arg.substr(prefixLen));
    } catch (const std::exception&) {
        std::fprintf(stderr, "phpfc: bad numeric value in '%s'\n",
                     arg.c_str());
        std::exit(2);
    }
}

/// intFlag for a count: a negative value exits 2 instead of wrapping
/// to a huge size_t (--cache-capacity) or meaning "auto" (--workers).
int countFlag(const std::string& arg, std::size_t prefixLen) {
    const int v = intFlag(arg, prefixLen);
    if (v < 0) {
        std::fprintf(stderr, "phpfc: '%s' must not be negative\n",
                     arg.c_str());
        std::exit(2);
    }
    return v;
}

/// Every 'x'-separated extent must be a whole positive integer: "0",
/// "-2", "0x4", "4abc", "2x2y" and "2x" exit 2 here instead of aborting
/// in the processor grid or running on a truncated grid.
std::vector<int> parseGrid(const std::string& spec) {
    std::vector<int> grid;
    bool ok = true;
    try {
        for (std::size_t at = 0;;) {
            const std::size_t x = spec.find('x', at);
            grid.push_back(wholeInt(spec.substr(at, x - at)));
            if (x == std::string::npos) break;
            at = x + 1;
        }
    } catch (const std::exception&) {
        ok = false;
    }
    const auto nonPositive = [](int e) { return e < 1; };
    if (!ok || std::any_of(grid.begin(), grid.end(), nonPositive)) {
        std::fprintf(stderr, "phpfc: bad --procs grid '%s' (want e.g. 2x4)\n",
                     spec.c_str());
        std::exit(2);
    }
    return grid;
}

void usage() {
    std::fprintf(stderr,
                 "usage: phpfc FILE.hpf [--procs NxM] [--report] [--lower] "
                 "[--cost] [--spmd]\n"
                 "             [--report=FILE.json] [--trace=FILE.json] "
                 "[--no-sim]\n"
                 "             [--target=mp|shm]  (mp = SP2 message "
                 "passing, default;\n"
                 "              shm = shared-memory OpenMP-style SMP)\n"
                 "             [--sim-engine=interp|bytecode]  (default "
                 "bytecode; bit-identical)\n"
                 "             [--relaxed-merge]  (commutative reduction "
                 "merges, unordered)\n"
                 "             [--profile] [--profile-folded=FILE.folded]\n"
                 "             [--no-privatization] [--producer-only]\n"
                 "             [--no-reduction-align] [--no-array-priv]\n"
                 "             [--no-partial-priv] [--no-cf-priv]\n"
                 "       phpfc --builtin=NAME ...  (builtin kernel instead "
                 "of a file)\n"
                 "       phpfc --batch=JOBS.json [--workers=N] "
                 "[--cache-capacity=N]  (0 = default)\n"
                 "             [--profile]  (profiled sim for every job)\n");
}

int runBatchMode(const std::string& jobsFile, int workers,
                 std::size_t cacheCapacity, bool profileAll) {
    service::BatchSpec spec;
    std::string err;
    if (!service::loadBatchFile(jobsFile, &spec, &err)) {
        std::fprintf(stderr, "phpfc: %s\n", err.c_str());
        return 1;
    }
    if (profileAll)
        for (service::BatchJob& job : spec.jobs) job.profile = true;
    service::ServiceConfig cfg;
    cfg.workers = workers;
    if (cacheCapacity > 0) cfg.cacheCapacity = cacheCapacity;
    service::CompileService svc(cfg);

    const service::BatchOutcome outcome =
        service::runBatch(svc, spec, std::cout);
    std::fprintf(stderr,
                 "phpfc: %d job(s), %d ok, %d failed, "
                 "%d cache hit(s), %.3f s\n",
                 outcome.jobs, outcome.ok, outcome.failed, outcome.cacheHits,
                 outcome.wallSec);
    return outcome.failed == 0 ? 0 : 1;
}

bool startsWith(const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string file;
    std::vector<int> grid{4};
    bool doReport = false, doLower = false, doCost = false, doSpmd = false;
    bool runSim = true;
    // Every which-implementation choice funnels through the one
    // enum-backed selection block (driver/options.h).
    ExecSelection selection;
    std::string reportFile, traceFile;
    MappingOptions mapping;
    std::string batchFile;
    int batchWorkers = 0;
    std::size_t batchCacheCapacity = 0;
    bool profile = false;
    std::string foldedFile;
    std::string builtinName;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--procs" && i + 1 < argc) grid = parseGrid(argv[++i]);
        else if (startsWith(arg, "--batch=")) batchFile = arg.substr(8);
        else if (startsWith(arg, "--builtin=")) builtinName = arg.substr(10);
        else if (arg == "--profile") profile = true;
        else if (startsWith(arg, "--profile-folded="))
            foldedFile = arg.substr(17);
        else if (startsWith(arg, "--workers="))
            batchWorkers = countFlag(arg, 10);
        else if (startsWith(arg, "--cache-capacity="))
            batchCacheCapacity = static_cast<std::size_t>(countFlag(arg, 17));
        else if (arg == "--report") doReport = true;
        else if (startsWith(arg, "--report=")) reportFile = arg.substr(9);
        else if (startsWith(arg, "--trace=")) traceFile = arg.substr(8);
        else if (arg == "--no-sim") runSim = false;
        else if (startsWith(arg, "--target=")) {
            if (!parseExecSelection("target", arg.substr(9), &selection)) {
                std::fprintf(stderr, "phpfc: bad --target '%s' (want mp|shm)\n",
                             arg.substr(9).c_str());
                return 2;
            }
        } else if (startsWith(arg, "--sim-engine=")) {
            if (!parseExecSelection("engine", arg.substr(13), &selection)) {
                std::fprintf(stderr,
                             "phpfc: bad --sim-engine '%s' "
                             "(want interp|bytecode)\n",
                             arg.substr(13).c_str());
                return 2;
            }
        } else if (arg == "--relaxed-merge")
            selection.relaxedMerge = true;
        else if (arg == "--lower") doLower = true;
        else if (arg == "--cost") doCost = true;
        else if (arg == "--spmd") doSpmd = true;
        else if (arg == "--no-privatization") mapping.privatization = false;
        else if (arg == "--producer-only")
            mapping.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
        else if (arg == "--no-reduction-align")
            mapping.reductionAlignment = false;
        else if (arg == "--no-array-priv") mapping.arrayPrivatization = false;
        else if (arg == "--no-partial-priv")
            mapping.partialPrivatization = false;
        else if (arg == "--no-cf-priv")
            mapping.controlFlowPrivatization = false;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 2;
        } else {
            file = arg;
        }
    }
    if (!batchFile.empty())
        return runBatchMode(batchFile, batchWorkers, batchCacheCapacity,
                            profile);
    if (file.empty() && builtinName.empty()) {
        usage();
        return 2;
    }
    const bool jsonOnly = !reportFile.empty() || !traceFile.empty() ||
                          profile || !foldedFile.empty();
    if (!doReport && !doLower && !doCost && !doSpmd && !jsonOnly)
        doReport = doLower = doCost = doSpmd = true;

    std::stringstream buf;
    if (builtinName.empty()) {
        std::ifstream in(file);
        if (!in) {
            std::fprintf(stderr, "phpfc: cannot open %s\n", file.c_str());
            return 1;
        }
        buf << in.rdbuf();
    }

    // One tracer covers the whole run so the front end's span lands on
    // the same timeline as the compiler passes and the simulation.
    auto tracer = std::make_shared<obs::Tracer>();
    DiagEngine diags;
    // --builtin resolves through the batch runner's kernel table so the
    // CLI and jobs files accept exactly the same names.
    std::function<Program()> buildBuiltin;
    if (!builtinName.empty()) {
        service::BatchJob job;
        job.program = builtinName;
        service::CompileRequest breq;
        std::string berr;
        if (!service::requestOfJob(job, &breq, &berr)) {
            std::fprintf(stderr, "phpfc: %s\n", berr.c_str());
            return 2;
        }
        buildBuiltin = breq.build;
    }
    Program p = [&] {
        obs::ScopedSpan span(*tracer, "parse", "pass");
        if (buildBuiltin) return buildBuiltin();
        Parser parser(buf.str(), diags);
        return parser.parse();
    }();
    if (diags.hasErrors()) {
        std::fprintf(stderr, "%s", diags.dump().c_str());
        return 1;
    }

    TargetConfig target;
    target.gridExtents = grid;
    PassOptions passes;
    passes.mapping = mapping;
    selection.applyTo(&target, &passes);
    CompileSession session;
    session.tracer = tracer;
    session.diags = &diags;
    Compilation c = Compiler::compile(p, target, passes, std::move(session));

    const Target& backend = c.compileTarget();
    std::printf("compiled '%s' for grid %s, target %s\n", p.name.c_str(),
                ProcGrid(grid).str().c_str(), backend.name());
    if (doReport) std::printf("\n%s", c.report().c_str());
    if (doLower) std::printf("\n%s", c.lowering().dump().c_str());
    if (doSpmd) std::printf("\n%s", backend.emitText(c.lowering()).c_str());
    if (doCost) {
        const CostReport report = backend.costReport(c.lowering(), target);
        std::printf("\npredicted execution (%s):\n%s", backend.displayName(),
                    report.str(p).c_str());
    }

    // The JSON report carries per-processor metrics only when the
    // functional simulation runs (zero-seeded inputs; message and guard
    // accounting do not depend on values). The Chrome trace needs the
    // run too, for its simulate, sim-setup and sim-exec spans.
    std::unique_ptr<SpmdSimulator> sim;
    const bool wantSim = runSim && (!reportFile.empty() || !traceFile.empty() ||
                                    profile || !foldedFile.empty());
    if (wantSim) {
        SimulationRequest sreq;
        sreq.profile = profile || !foldedFile.empty();
        try {
            sim = c.simulate(sreq);
        } catch (const SimFault& e) {
            std::fprintf(stderr, "phpfc: %s\n", e.what());
            return 1;
        }
    }
    if (sim != nullptr && sim->profile() != nullptr) {
        const obs::CalibrationReport cal = obs::buildCalibration(
            c.lowering(), target.costModel, *sim, *sim->profile(),
            c.mappingPass().decisionLog());
        std::printf("calibration: %d/%d rows joined, model MAPE %.2f%%\n",
                    cal.summary.joined, static_cast<int>(cal.rows.size()),
                    cal.summary.mapeSecPct);
        if (!foldedFile.empty()) {
            std::ofstream folded(foldedFile);
            if (!folded) {
                std::fprintf(stderr, "phpfc: cannot write %s\n",
                             foldedFile.c_str());
                return 1;
            }
            folded << obs::foldedStacks(c.lowering().program(),
                                        *sim->profile());
            std::printf("folded stacks written to %s (feed to "
                        "flamegraph.pl)\n",
                        foldedFile.c_str());
        }
    }
    if (!reportFile.empty()) {
        if (!c.writeReport(reportFile, sim.get())) {
            std::fprintf(stderr, "phpfc: cannot write %s\n",
                         reportFile.c_str());
            return 1;
        }
        std::printf("run report written to %s\n", reportFile.c_str());
    }
    if (!traceFile.empty()) {
        if (!obs::writeChromeTrace(*tracer, traceFile, "phpfc " + p.name)) {
            std::fprintf(stderr, "phpfc: cannot write %s\n", traceFile.c_str());
            return 1;
        }
        std::printf("chrome trace written to %s (open in chrome://tracing "
                    "or ui.perfetto.dev)\n",
                    traceFile.c_str());
    }
    return 0;
}
