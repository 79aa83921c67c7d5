#include "jobs.h"

#include <cmath>
#include <functional>
#include <map>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "inputs.h"
#include "ir/printer.h"
#include "programs/programs.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "service/fingerprint.h"

namespace perfbench {

namespace {

using phpf::MappingOptions;

// --------------------------------------------------------------------
// The cells of the paper's Tables 1-3.

/// Kernel sizes of one instance of the table matrix.
struct TableSizes {
    std::int64_t tomcatvN, tomcatvIters, dgefaN, appspN, appspIters;
};
/// Section 5: TOMCATV n=513/niter=100, DGEFA n=1000, APPSP 64^3/niter=50.
constexpr TableSizes kPaperSizes{513, 100, 1000, 64, 50};
/// Small enough to simulate: TOMCATV n=65/niter=3, DGEFA n=64, APPSP
/// 16^3/niter=2.
constexpr TableSizes kSimSizes{65, 3, 64, 16, 2};

/// Untimed passes over the cells before a simulating run starts timing.
constexpr int kSimWarmupPasses = 3;

/// The kernels' sources; APPSP's 1-D and 2-D versions are two programs.
enum Source : int { kTomcatv, kDgefa, kAppsp1d, kAppsp2d, kSourceCount };
/// Ledger rows: one per kernel (both APPSP versions share a row).
int rowOf(int source) { return source == kAppsp2d ? kAppsp1d : source; }

phpf::Program buildSource(int source, const TableSizes& z) {
    switch (source) {
        case kTomcatv: return phpf::programs::tomcatv(z.tomcatvN, z.tomcatvIters);
        case kDgefa: return phpf::programs::dgefa(z.dgefaN);
        default:
            return phpf::programs::appsp(z.appspN, z.appspN, z.appspN, z.appspIters,
                                         source == kAppsp1d);
    }
}

/// The 2-D processor grid Table 3 uses for P processors (as bench_table3).
std::vector<int> grid2d(int procs) {
    int a = 1, b = procs;
    while (a * 2 <= b / 2) {
        a *= 2;
        b /= 2;
    }
    return {a, b};
}

struct Cell {
    std::string label;
    int source = 0;
    phpf::TargetConfig target;
    phpf::PassOptions passes;
};

/// Every cell of Tables 1-3: TOMCATV x {Replication, Producer, Selected}
/// and DGEFA x {replicated, aligned reduction} on each of `procs`, and
/// APPSP x the five Table 3 variants on each of `appspProcs`.
std::vector<Cell> tableCells(const std::vector<int>& procs,
                             const std::vector<int>& appspProcs) {
    std::vector<Cell> cells;
    for (int p : procs) {
        const char* names[] = {"replication", "producer", "selected"};
        for (int v = 0; v < 3; ++v) {
            Cell c{"tomcatv " + std::string(names[v]) + " P=" + std::to_string(p), kTomcatv, {}, {}};
            c.target.gridExtents = {p};
            if (v == 0) c.passes.mapping.privatization = false;
            if (v == 1) c.passes.mapping.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
            cells.push_back(std::move(c));
        }
        for (bool align : {false, true}) {
            Cell c{std::string("dgefa ") + (align ? "aligned" : "replicated") + " P=" + std::to_string(p),
                   kDgefa, {}, {}};
            c.target.gridExtents = {p};
            c.passes.mapping.reductionAlignment = align;
            cells.push_back(std::move(c));
        }
    }
    for (int p : appspProcs)
        for (int v = 0; v < 5; ++v) {
            const bool oneD = v < 2;
            Cell c{"appsp v" + std::to_string(v) + " P=" + std::to_string(p),
                   oneD ? kAppsp1d : kAppsp2d, {}, {}};
            c.target.gridExtents = oneD ? std::vector<int>{p} : grid2d(p);
            c.target.costModel.combineMessages = v == 4;
            c.passes.mapping.arrayPrivatization = v == 1 || v >= 3;
            c.passes.mapping.partialPrivatization = v >= 3;
            cells.push_back(std::move(c));
        }
    return cells;
}

/// The run report without its wall-clock fields (per-pass times, the
/// process metric registry, simulator wall time and thread count): what
/// must be byte-identical every time one cell is compiled.
std::string stableReport(const phpf::obs::Json& report) {
    phpf::obs::Json out = phpf::obs::Json::object();
    for (const std::string& k : report.keys()) {
        if (k == "passes" || k == "metrics") continue;
        if (k != "simulation") {
            out.set(k, report.at(k));
            continue;
        }
        phpf::obs::Json sim = phpf::obs::Json::object();
        for (const std::string& s : report.at(k).keys())
            if (s != "wall_sec" && s != "parallel_speedup_est" && s != "threads")
                sim.set(s, report.at(k).at(s));
        out.set(k, std::move(sim));
    }
    return out.dump(-1);
}

JobResult failure(std::string what) {
    JobResult r;
    r.ok = false;
    r.error = std::move(what);
    return r;
}

// --------------------------------------------------------------------
// paper_tables and sim_kernels: one job compiles one table cell from its
// printed source.

class TablesWorkload : public Workload {
public:
    TablesWorkload(TableSizes sizes, bool simulate, std::vector<int> procs,
                   std::vector<int> appspProcs)
        : sizes_(sizes), simulate_(simulate), procs_(std::move(procs)),
          appspProcs_(std::move(appspProcs)) {}

    void setup(std::uint64_t seed) override {
        Rng rng(seed);
        sources_.assign(kSourceCount, {});
        for (int s = 0; s < kSourceCount; ++s) {
            phpf::Program built = buildSource(s, sizes_);
            built.finalize();
            sources_[s].text = phpf::printProgram(built);
            // The printed source must be the same program the builder made.
            phpf::DiagEngine diags;
            phpf::Parser parser(sources_[s].text, diags);
            phpf::Program parsed = parser.parse();
            if (diags.hasErrors()) {
                setupError_ = "printed source " + std::to_string(s) +
                              " does not parse: " + diags.dump();
                continue;
            }
            parsed.finalize();
            if (phpf::service::programFingerprint(parsed) !=
                phpf::service::programFingerprint(built))
                setupError_ = "printed source " + std::to_string(s) +
                              " parses to another program";
            Rng inputRng = rng.fork(static_cast<std::uint64_t>(s) + 1);
            std::string err;
            if (simulate_ && !makeInputs(parsed, inputRng, &sources_[s].inputs, &err))
                setupError_ = err;
        }
        cells_ = tableCells(procs_, appspProcs_);
        orderRng_ = rng.fork(100);
    }

    int warmup(Counts* counts, std::vector<std::string>* errors,
               std::int64_t* attempted) override {
        int failed = 0;
        if (!setupError_.empty()) {
            errors->push_back(setupError_);
            ++failed;
        }
        refs_.assign(cells_.size(), {});
        oracleCost_.assign(cells_.size(), 0);
        Recorder untraced(false);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell& cell = cells_[i];
            // The oracle for the prediction: the same cell compiled from
            // the builder's program, without the front end.
            phpf::Program built = buildSource(cell.source, sizes_);
            oracleCost_[i] =
                phpf::Compiler::compile(built, cell.target, cell.passes).predictCost().totalSec();
            Observed& o = refs_[i];
            ++*attempted;
            JobResult r = execute(static_cast<int>(i), untraced, &o, /*first=*/true);
            if (r.ok && o.cost != oracleCost_[i])
                r = failure("predicted cost differs from the builder-compiled cell");
            if (!r.ok) {
                errors->push_back(cell.label + ": " + r.error);
                ++failed;
                continue;
            }
            counts->decisions += o.decisions;
            counts->commOps += o.commOps;
            counts->modelEvents += o.modelEvents;
            counts->messageEvents += o.messageEvents;
            counts->elementTransfers += o.elementTransfers;
            counts->procStmts += o.procStmts;
            counts->reportBytes += o.reportBytes;
        }
        // Simulator thread pools have stalled for the first 2-3 passes of
        // a process (README: "Library defaults only"); keep those passes
        // out of the timed jobs.
        for (int pass = 1; simulate_ && failed == 0 && pass < kSimWarmupPasses; ++pass)
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                ++*attempted;
                const JobResult r = runJob(static_cast<int>(i), untraced);
                if (!r.ok) {
                    errors->push_back(r.error);
                    ++failed;
                }
            }
        return failed;
    }

    std::vector<int> nextBatch() override {
        std::vector<int> order(cells_.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
        shuffle(order, orderRng_);
        return order;
    }

    JobResult runJob(int i, Recorder& rec) override {
        Observed o;
        JobResult r = execute(i, rec, &o, /*first=*/false);
        if (!r.ok) return r;
        const Observed& ref = refs_[static_cast<std::size_t>(i)];
        if (o.cost != oracleCost_[static_cast<std::size_t>(i)])
            return failure(cells_[static_cast<std::size_t>(i)].label +
                           ": predicted cost differs from the builder-compiled cell");
        if (o.reportHash != ref.reportHash || o.emitBytes != ref.emitBytes ||
            o.messageEvents != ref.messageEvents ||
            o.elementTransfers != ref.elementTransfers || o.procStmts != ref.procStmts)
            return failure(cells_[static_cast<std::size_t>(i)].label +
                           ": report, emitted text or simulator counts do not repeat");
        if (rec.tracing()) tracedProcStmts += o.procStmts;
        return r;
    }

    std::vector<std::string> ledgerRows() const override {
        const TableSizes& z = sizes_;
        return {"tomcatv n=" + std::to_string(z.tomcatvN) + " niter=" + std::to_string(z.tomcatvIters),
                "dgefa n=" + std::to_string(z.dgefaN),
                "appsp " + std::to_string(z.appspN) + "^3 niter=" + std::to_string(z.appspIters)};
    }

private:
    struct SourceText {
        std::string text;
        InputSet inputs;
    };
    /// What one job produced that must repeat.
    struct Observed {
        double cost = 0;
        std::int64_t modelEvents = 0, decisions = 0, commOps = 0;
        std::int64_t messageEvents = 0, elementTransfers = 0, procStmts = 0;
        std::size_t emitBytes = 0;
        std::uint64_t reportHash = 0;
        std::int64_t reportBytes = 0;
    };

    /// One job: parse the printed source, step the pipeline, emit,
    /// predict, [simulate], report. Output checks follow the timed part.
    JobResult execute(int i, Recorder& rec, Observed* o, bool first) {
        const Cell& cell = cells_[static_cast<std::size_t>(i)];
        const SourceText& src = sources_[static_cast<std::size_t>(cell.source)];
        phpf::DiagEngine diags;
        rec.beginJob(rowOf(cell.source));
        phpf::Program p = rec.layer(kParse, [&] {
            phpf::Parser parser(src.text, diags);
            return parser.parse();
        });
        if (diags.hasErrors()) {
            rec.endJob();
            return failure(cell.label + ": parse failed: " + diags.dump());
        }
        phpf::CompilePipeline pipe(p, cell.target, cell.passes);
        bool stepped = true;
        while (stepped && !pipe.done()) {
            const int layer = rec.tracing() ? layerOfStage(phpf::stageName(pipe.next())) : -1;
            stepped = rec.layer(layer, [&] { return pipe.step(); });
        }
        if (!stepped) {
            rec.endJob();
            return failure(cell.label + ": pipeline stopped before " +
                           phpf::stageName(pipe.next()));
        }
        const phpf::Compilation c = std::move(pipe).take();
        std::string emitted;
        if (!simulate_)
            emitted = rec.layer(kEmit, [&] { return c.compileTarget().emitText(c.lowering()); });
        const phpf::CostBreakdown cost = rec.layer(kCost, [&] { return c.predictCost(); });
        std::unique_ptr<phpf::SpmdSimulator> sim;
        if (simulate_) {
            sim = rec.layer(kSimSetup, [&] {
                auto s = std::make_unique<phpf::SpmdSimulator>(c.lowering(),
                                                               c.target().costModel.elemBytes);
                applyInputs(src.inputs, c.lowering().program(), s->oracle());
                return s;
            });
            rec.layer(kSimRun, [&] { sim->run(); });
        }
        phpf::obs::Json report;
        std::string reportText;
        rec.layer(kReport, [&] {
            report = c.buildRunReport(sim.get());
            reportText = report.dump();
        });
        JobResult res;
        res.ns = rec.endJob();

        if (reportText.empty()) return failure(cell.label + ": empty run report");
        const std::string stable = stableReport(report);
        o->cost = cost.totalSec();
        o->modelEvents = cost.messageEvents;
        o->decisions = static_cast<std::int64_t>(c.mappingPass().decisionLog().records().size());
        o->commOps = static_cast<std::int64_t>(c.lowering().commOps().size());
        o->emitBytes = emitted.size();
        o->reportHash = phpf::service::fnv1a64(stable);
        o->reportBytes = static_cast<std::int64_t>(stable.size());
        if (sim == nullptr) return res;
        o->messageEvents = sim->messageEvents();
        o->elementTransfers = sim->elementTransfers();
        o->procStmts = sim->statementsExecutedAllProcs();
        const phpf::Program& prog = c.lowering().program();
        for (const ArrayInit& a : src.inputs) {
            const double err = sim->maxErrorVsOracle(a.name);
            if (err != 0.0)
                return failure(cell.label + ": array " + a.name + " differs from the oracle by " +
                               std::to_string(err));
            if (!first) continue;
            // A non-finite oracle value would make the comparison vacuous.
            for (const phpf::Symbol& s : prog.symbols)
                if (s.name == a.name)
                    for (std::int64_t f = 0; f < s.elementCount(); ++f)
                        if (!std::isfinite(sim->oracle().store().get(s.id, f)))
                            return failure(cell.label + ": oracle array " + a.name +
                                           " holds a non-finite value");
        }
        return res;
    }

    const TableSizes sizes_;
    const bool simulate_;
    const std::vector<int> procs_, appspProcs_;
    std::vector<SourceText> sources_;
    std::vector<Cell> cells_;
    std::vector<Observed> refs_;
    std::vector<double> oracleCost_;
    Rng orderRng_{0};
    std::string setupError_;
};

// --------------------------------------------------------------------
// service_mix: batch-style requests through one CompileService.

/// Every builtin kernel x grid x option variant x size as batch rows.
std::vector<phpf::service::BatchJob> serviceJobs() {
    std::vector<phpf::service::BatchJob> jobs;
    // The table matrix at paper size, at simulation size and at the
    // builtin smoke size (0 = the kernel's default).
    const TableSizes smoke{0, 0, 0, 0, 0};
    for (const TableSizes& z : {kPaperSizes, kSimSizes, smoke})
        for (const Cell& c : tableCells({1, 2, 4, 8, 16}, {2, 4, 8, 16})) {
            phpf::service::BatchJob j;
            j.name = c.label;
            j.target = c.target;
            j.passes = c.passes;
            if (c.source == kTomcatv) {
                j.program = "tomcatv";
                j.n = z.tomcatvN;
                j.niter = z.tomcatvIters;
            } else if (c.source == kDgefa) {
                j.program = "dgefa";
                j.n = z.dgefaN;
            } else {
                j.program = c.source == kAppsp1d ? "appsp" : "appsp2d";
                j.nx = j.ny = j.nz = z.appspN;
                j.niter = z.appspIters;
            }
            jobs.push_back(std::move(j));
        }
    // The figures and ADI: 1-D kernels on 1-D grids, 2-D ones on 2-D
    // grids, each under four option variants.
    const std::vector<std::function<void(phpf::service::BatchJob&)>> variants = {
        [](phpf::service::BatchJob&) {},
        [](phpf::service::BatchJob& j) {
            j.passes.mapping.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
        },
        [](phpf::service::BatchJob& j) { j.passes.mapping.privatization = false; },
        [](phpf::service::BatchJob& j) {
            j.target.targetKind = phpf::TargetKind::SharedMemory;
        },
    };
    for (const char* prog : {"fig1", "fig2", "fig7", "adi"})
        for (std::int64_t n : {16, 32, 64})
            for (int p : {1, 2, 4, 8, 16})
                for (const auto& variant : variants) {
                    phpf::service::BatchJob j;
                    j.program = prog;
                    j.n = n;
                    j.target.gridExtents = {p};
                    variant(j);
                    jobs.push_back(std::move(j));
                }
    for (const char* prog : {"fig4", "fig5", "fig6"})
        for (std::int64_t n : {8, 16})
            for (const std::vector<int>& g :
                 {std::vector<int>{2, 2}, {2, 4}, {4, 2}, {4, 4}})
                for (const auto& variant : variants) {
                    phpf::service::BatchJob j;
                    j.program = prog;
                    j.n = j.nx = j.ny = j.nz = n;
                    j.target.gridExtents = g;
                    variant(j);
                    jobs.push_back(std::move(j));
                }
    return jobs;
}

class ServiceWorkload : public Workload {
public:
    void setup(std::uint64_t seed) override {
        Rng rng(seed);
        const std::vector<phpf::service::BatchJob> jobs = serviceJobs();
        const std::vector<std::string>& names = phpf::service::builtinProgramNames();
        reqs_.assign(jobs.size(), {});
        rows_.assign(jobs.size(), 0);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::string err;
            if (!phpf::service::requestOfJob(jobs[i], &reqs_[i], &err)) setupError_ = err;
            for (std::size_t n = 0; n < names.size(); ++n)
                if (names[n] == jobs[i].program) rows_[i] = static_cast<int>(n);
        }
        svc_ = std::make_unique<phpf::service::CompileService>();
        // The popularity ranking is fixed, so that every seed sees the
        // same cost mix among popular and unpopular keys; the seed drives
        // the draws.
        rankToJob_.resize(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) rankToJob_[i] = static_cast<int>(i);
        Rng ranking(0x5eed);
        shuffle(rankToJob_, ranking);
        zipf_ = std::make_unique<Zipf>(jobs.size(), 1.0);
        drawRng_ = rng.fork(200);
    }

    int warmup(Counts* counts, std::vector<std::string>* errors,
               std::int64_t* attempted) override {
        int failed = 0;
        if (!setupError_.empty()) {
            errors->push_back(setupError_);
            ++failed;
        }
        // Every key once, so each has a reference cost and is counted.
        Recorder untraced(false);
        for (std::size_t i = 0; i < reqs_.size(); ++i) {
            ++*attempted;
            const phpf::service::CompileResult r = svc_->compile(reqs_[i]);
            if (r.status != phpf::service::CompileStatus::Ok) {
                errors->push_back(reqs_[i].name + ": " + r.error);
                ++failed;
                continue;
            }
            if (!costRef_.emplace(r.key, r.artifact->cost.totalSec()).second) continue;
            const phpf::Compilation& c = *r.artifact->compilation;
            counts->decisions += static_cast<std::int64_t>(c.mappingPass().decisionLog().records().size());
            counts->commOps += static_cast<std::int64_t>(c.lowering().commOps().size());
            counts->modelEvents += r.artifact->cost.messageEvents;
            counts->reportBytes += static_cast<std::int64_t>(stableReport(r.artifact->runReport).size());
        }
        // Then draws until the LRU holds the popular keys.
        for (std::size_t d = 0; d < 8 * reqs_.size(); ++d) {
            ++*attempted;
            const JobResult r = runJob(rankToJob_[zipf_->draw(drawRng_)], untraced);
            if (!r.ok) {
                errors->push_back(r.error);
                ++failed;
            }
        }
        return failed;
    }

    std::vector<int> nextBatch() override {
        std::vector<int> batch(64);
        for (int& i : batch) i = rankToJob_[zipf_->draw(drawRng_)];
        return batch;
    }

    JobResult runJob(int i, Recorder& rec) override {
        const phpf::service::CompileRequest& req = reqs_[static_cast<std::size_t>(i)];
        rec.beginJob(rows_[static_cast<std::size_t>(i)]);
        const phpf::service::CompileResult r =
            rec.layer(kServiceMiss, [&] { return svc_->compile(req); });
        rec.relabelLast(r.cacheHit ? kServiceHit : kServiceMiss);
        JobResult res;
        res.ns = rec.endJob();
        if (r.status != phpf::service::CompileStatus::Ok)
            return failure(req.name + ": " + r.error);
        // A hit must serve what the miss that produced it computed.
        const auto [it, fresh] = costRef_.emplace(r.key, r.artifact->cost.totalSec());
        if (!fresh && it->second != r.artifact->cost.totalSec())
            return failure(req.name + ": artifact cost differs from the first compile of its key");
        return res;
    }

    std::vector<std::string> ledgerRows() const override {
        return phpf::service::builtinProgramNames();
    }

    void serviceStats(std::int64_t* hits, std::int64_t* requests,
                      std::int64_t* evictions) const override {
        const phpf::service::ServiceStats s = svc_->stats();
        *hits = s.cache.hits;
        *requests = s.requests;
        *evictions = s.cache.evictions;
    }

private:
    std::vector<phpf::service::CompileRequest> reqs_;
    std::vector<int> rows_;
    std::vector<int> rankToJob_;
    std::unique_ptr<Zipf> zipf_;
    Rng drawRng_{0};
    std::unique_ptr<phpf::service::CompileService> svc_;
    std::map<std::string, double> costRef_;
    std::string setupError_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
    if (name == "paper_tables")
        return std::make_unique<TablesWorkload>(kPaperSizes, false,
                                                std::vector<int>{1, 2, 4, 8, 16},
                                                std::vector<int>{2, 4, 8, 16});
    if (name == "sim_kernels")
        return std::make_unique<TablesWorkload>(kSimSizes, true, std::vector<int>{16},
                                                std::vector<int>{16});
    if (name == "service_mix") return std::make_unique<ServiceWorkload>();
    return nullptr;
}

}  // namespace perfbench
