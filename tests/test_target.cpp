// Tests for the Target interface (src/target/): backend registry and
// ExecSelection round-trip, mp-vs-shm cost predictions over the
// paper's kernels, the shared-memory emitter, shm simulation
// accounting (barrier epochs, no network faults inside one SMP node),
// and the run report's "which target wins" decision layer.

#include <gtest/gtest.h>

#include <bit>
#include <latch>
#include <thread>

#include "driver/compiler.h"
#include "pinned_costs.h"
#include "programs/programs.h"
#include "spmd/spmd_text.h"
#include "target/target.h"

namespace phpf {
namespace {

// ---------------------------------------------------------------------
// Registry and selection plumbing.

TEST(Target, RegistryReturnsStatelessSingletons) {
    const Target& mp = targetFor(TargetKind::MessagePassing);
    const Target& shm = targetFor(TargetKind::SharedMemory);
    EXPECT_EQ(mp.kind(), TargetKind::MessagePassing);
    EXPECT_EQ(shm.kind(), TargetKind::SharedMemory);
    EXPECT_STREQ(mp.name(), "mp");
    EXPECT_STREQ(shm.name(), "shm");
    // Singletons: repeated lookups hand back the same object.
    EXPECT_EQ(&mp, &targetFor(TargetKind::MessagePassing));
    EXPECT_EQ(&shm, &targetFor(TargetKind::SharedMemory));
}

TEST(Target, TargetKindNamesRoundTrip) {
    for (TargetKind k :
         {TargetKind::MessagePassing, TargetKind::SharedMemory}) {
        TargetKind parsed{};
        ASSERT_TRUE(parseTargetKind(targetKindName(k), &parsed));
        EXPECT_EQ(parsed, k);
    }
    TargetKind ignored{};
    EXPECT_FALSE(parseTargetKind("simd", &ignored));
    EXPECT_FALSE(parseTargetKind("", &ignored));
}

TEST(Target, ExecSelectionRoundTripsThroughItsPrintedForm) {
    ExecSelection sel;
    sel.target = TargetKind::SharedMemory;
    sel.engine = SimEngine::Interp;
    sel.relaxedMerge = true;

    ExecSelection reparsed;
    ASSERT_TRUE(parseExecSelectionList(printExecSelection(sel), &reparsed));
    EXPECT_EQ(reparsed, sel);

    // Key-by-key parsing accepts the documented spellings...
    ExecSelection s2;
    EXPECT_TRUE(parseExecSelection("target", "shm", &s2));
    EXPECT_TRUE(parseExecSelection("sim_engine", "interp", &s2));
    EXPECT_TRUE(parseExecSelection("relaxed_merge", "on", &s2));
    EXPECT_EQ(s2, sel);
    // ...and rejects unknown keys/values without touching the output.
    EXPECT_FALSE(parseExecSelection("target", "simd", &s2));
    EXPECT_FALSE(parseExecSelection("backend", "mp", &s2));
    EXPECT_EQ(s2, sel);
}

TEST(Target, ExecSelectionAppliesToConfigAndReadsBack) {
    ExecSelection sel;
    sel.target = TargetKind::SharedMemory;
    sel.engine = SimEngine::Interp;
    sel.relaxedMerge = true;
    TargetConfig target;
    PassOptions passes;
    sel.applyTo(&target, &passes);
    EXPECT_EQ(target.targetKind, TargetKind::SharedMemory);
    EXPECT_EQ(passes.simEngine, SimEngine::Interp);
    EXPECT_TRUE(passes.relaxedMerge);
    EXPECT_EQ(ExecSelection::selectionOf(target, passes), sel);
}

// ---------------------------------------------------------------------
// Both backends compile and price the paper's kernels from unchanged
// sources; predictions differ only in the communication component.

struct Kernel {
    const char* label;
    std::function<Program()> build;
    std::vector<int> grid;
};

std::vector<Kernel> paperKernels() {
    return {
        {"tomcatv", [] { return programs::tomcatv(65, 5); }, {4}},
        {"dgefa", [] { return programs::dgefa(32); }, {4}},
        {"appsp", [] { return programs::appsp(8, 8, 8, 2, false); }, {2, 2}},
    };
}

TEST(Target, BothBackendsCompileThePaperKernels) {
    for (const Kernel& k : paperKernels()) {
        SCOPED_TRACE(k.label);
        for (TargetKind kind :
             {TargetKind::MessagePassing, TargetKind::SharedMemory}) {
            SCOPED_TRACE(targetKindName(kind));
            Program p = k.build();
            TargetConfig target;
            target.gridExtents = k.grid;
            target.targetKind = kind;
            Compilation c = Compiler::compile(p, target);
            EXPECT_EQ(&c.compileTarget(), &targetFor(kind));
            const CostBreakdown cb = c.predictCost();
            EXPECT_GT(cb.totalSec(), 0.0);
            auto sim = c.simulate();
            EXPECT_EQ(sim->targetKind(), kind);
            EXPECT_GT(sim->statementsExecutedAllProcs(), 0);
        }
    }
}

TEST(Target, ComputeChargeIsTargetIndependent) {
    // Both machine models share the per-CPU flop rate, so cross-pricing
    // one lowering must agree exactly on the compute component and on
    // the communicated volume; only the communication pricing differs.
    for (const Kernel& k : paperKernels()) {
        SCOPED_TRACE(k.label);
        Program p = k.build();
        TargetConfig target;
        target.gridExtents = k.grid;
        Compilation c = Compiler::compile(p, target);
        const CostBreakdown mp = c.predictCostFor(TargetKind::MessagePassing);
        const CostBreakdown shm = c.predictCostFor(TargetKind::SharedMemory);
        EXPECT_EQ(mp.computeSec, shm.computeSec);
        EXPECT_EQ(mp.commBytes, shm.commBytes);
        EXPECT_GT(shm.commSec, 0.0);
        EXPECT_NE(mp.commSec, shm.commSec);
    }
}

TEST(Target, CrossPricingMatchesTheOtherBackendsOwnPrediction) {
    // predictCostFor on an mp compilation must equal what a dedicated
    // shm compilation predicts (and vice versa): the lowering structure
    // is target-independent, so the decision layer never needs a second
    // compilation.
    Program p1 = programs::tomcatv(65, 5);
    TargetConfig mpConf;
    mpConf.gridExtents = {4};
    Compilation mpC = Compiler::compile(p1, mpConf);

    Program p2 = programs::tomcatv(65, 5);
    TargetConfig shmConf = mpConf;
    shmConf.targetKind = TargetKind::SharedMemory;
    Compilation shmC = Compiler::compile(p2, shmConf);

    const CostBreakdown a = mpC.predictCostFor(TargetKind::SharedMemory);
    const CostBreakdown b = shmC.predictCost();
    EXPECT_EQ(a.computeSec, b.computeSec);
    EXPECT_EQ(a.commSec, b.commSec);
    EXPECT_EQ(a.messageEvents, b.messageEvents);
    EXPECT_EQ(a.commBytes, b.commBytes);

    const CostBreakdown c = shmC.predictCostFor(TargetKind::MessagePassing);
    const CostBreakdown d = mpC.predictCost();
    EXPECT_EQ(c.commSec, d.commSec);
}

TEST(Target, MessagePassingHooksReproduceTheDefaultFormulas) {
    // The mp target's MappingCostHooks spell out exactly the formulas
    // MappingPass defaults to when no hooks are set — priced values
    // must be bit-identical, so the target layer cannot perturb any
    // mapping decision.
    const TargetConfig conf;
    const MappingCostHooks hooks =
        targetFor(TargetKind::MessagePassing).mappingHooks(conf);
    const CostModel& cm = conf.costModel;
    ASSERT_TRUE(hooks.elementMessage && hooks.reduceCombine &&
                hooks.broadcast);
    for (const double bytes : {8.0, 64.0, 4096.0}) {
        EXPECT_EQ(hooks.elementMessage(bytes), cm.message(bytes));
        for (const int procs : {1, 2, 4, 16}) {
            EXPECT_EQ(hooks.reduceCombine(procs, bytes),
                      cm.reduce(procs, bytes));
            EXPECT_EQ(hooks.broadcast(procs, bytes),
                      cm.broadcast(procs, bytes));
        }
    }
}

// ---------------------------------------------------------------------
// Shared-memory emission.

TEST(Target, ShmEmitterLowersPrivatizedScalarsToThreadprivate) {
    Program p = programs::tomcatv(65, 2);
    TargetConfig conf;
    conf.gridExtents = {4};
    conf.targetKind = TargetKind::SharedMemory;
    Compilation c = Compiler::compile(p, conf);
    const std::string text = c.compileTarget().emitText(c.lowering());

    // Privatized scalars become threadprivate copies...
    EXPECT_NE(text.find("!$omp threadprivate("), std::string::npos);
    // ...inside one parallel region with static worksharing.
    EXPECT_NE(text.find("!$omp parallel"), std::string::npos);
    EXPECT_NE(text.find("!$omp end parallel"), std::string::npos);
    EXPECT_NE(text.find("!$omp do schedule(static)"), std::string::npos);
    // Communication becomes barrier-delimited shared reads, never
    // message sends: the transfer phase is gone.
    EXPECT_NE(text.find("sync: barrier"), std::string::npos);
    EXPECT_EQ(text.find("send"), std::string::npos);
}

TEST(Target, ShmEmitterLowersReductionCombinesToCombinerTrees) {
    // Fig. 5 on a 2-D grid: the j (column) grid dimension carries a
    // SUM reduction whose cross-processor merge becomes a combiner
    // tree instead of reduction messages.
    Program p = programs::fig5(16);
    TargetConfig conf;
    conf.gridExtents = {2, 2};
    conf.targetKind = TargetKind::SharedMemory;
    Compilation c = Compiler::compile(p, conf);
    const std::string text = c.compileTarget().emitText(c.lowering());
    EXPECT_NE(text.find("combiner tree"), std::string::npos);
}

TEST(Target, MpEmissionIsUnchangedByTheTargetLayer) {
    // The mp target's emitText must be the classic SPMD text emitter —
    // bit-identical, not merely similar.
    Program p = programs::fig1(32);
    TargetConfig conf;
    conf.gridExtents = {4};
    Compilation c = Compiler::compile(p, conf);
    EXPECT_EQ(c.compileTarget().emitText(c.lowering()),
              emitSpmdText(c.lowering()));
}

// ---------------------------------------------------------------------
// Simulation accounting under shm.

TEST(Target, ShmSimulationCountsBarrierEpochs) {
    Program p = programs::tomcatv(65, 2);
    TargetConfig conf;
    conf.gridExtents = {4};
    conf.targetKind = TargetKind::SharedMemory;
    Compilation c = Compiler::compile(p, conf);
    auto sim = c.simulate();
    EXPECT_EQ(sim->targetKind(), TargetKind::SharedMemory);
    // Every sync epoch is a barrier; under mp the counter stays 0.
    EXPECT_GT(sim->barrierEvents(), 0);
    EXPECT_EQ(sim->barrierEvents(), sim->messageEvents());

    Program p2 = programs::tomcatv(65, 2);
    TargetConfig mpConf = conf;
    mpConf.targetKind = TargetKind::MessagePassing;
    Compilation c2 = Compiler::compile(p2, mpConf);
    auto mpSim = c2.simulate();
    EXPECT_EQ(mpSim->barrierEvents(), 0);
    // Functional results and data-movement metrics are target
    // independent: the lowering moves the same elements either way.
    EXPECT_EQ(sim->elementTransfers(), mpSim->elementTransfers());
    EXPECT_EQ(sim->bytesMoved(), mpSim->bytesMoved());
    EXPECT_EQ(sim->statementsExecutedAllProcs(),
              mpSim->statementsExecutedAllProcs());
}

// ---------------------------------------------------------------------
// The decision layer in the run report.

TEST(Target, RunReportComparesTargetsAndRecordsAWinner) {
    Program p = programs::dgefa(32);
    TargetConfig conf;
    conf.gridExtents = {4};
    Compilation c = Compiler::compile(p, conf);
    const obs::Json r = c.buildRunReport();

    const obs::Json& desc = r.at("target");
    EXPECT_EQ(desc.at("kind").stringValue(), "mp");

    const obs::Json& cmp = r.at("target_comparison");
    const obs::Json& mp = cmp.at("mp");
    const obs::Json& shm = cmp.at("shm");
    EXPECT_EQ(mp.at("compute_sec").numberValue(),
              shm.at("compute_sec").numberValue());
    const obs::Json& decision = cmp.at("decision");
    EXPECT_EQ(decision.at("compiled_for").stringValue(), "mp");
    const std::string winner = decision.at("winner").stringValue();
    ASSERT_TRUE(winner == "mp" || winner == "shm");
    const double mpTotal = mp.at("total_sec").numberValue();
    const double shmTotal = shm.at("total_sec").numberValue();
    EXPECT_EQ(winner, shmTotal < mpTotal ? "shm" : "mp");
    EXPECT_GE(decision.at("speedup").numberValue(), 1.0);
    EXPECT_FALSE(decision.at("rationale").stringValue().empty());

    // The comparison is symmetric: compiling FOR shm reports the same
    // two totals (cross-pricing prices one target-independent lowering).
    Program p2 = programs::dgefa(32);
    TargetConfig shmConf = conf;
    shmConf.targetKind = TargetKind::SharedMemory;
    Compilation c2 = Compiler::compile(p2, shmConf);
    const obs::Json r2 = c2.buildRunReport();
    const obs::Json& cmp2 = r2.at("target_comparison");
    EXPECT_EQ(cmp2.at("mp").at("total_sec").numberValue(), mpTotal);
    EXPECT_EQ(cmp2.at("shm").at("total_sec").numberValue(), shmTotal);
    EXPECT_EQ(cmp2.at("decision").at("winner").stringValue(), winner);
    EXPECT_EQ(cmp2.at("decision").at("compiled_for").stringValue(), "shm");
}

// ---------------------------------------------------------------------
// The cost contract: predictCost(), predictDetailed().totals and
// costReport().total agree exactly, and the run report carries the same
// numbers.

struct Cell {
    std::string label;
    std::function<Program()> build;
    TargetConfig target;
    PassOptions passes;
};

/// Every cell of Tables 1-3 at the paper's sizes and at simulation
/// sizes (as the table benches build them), plus the figures and ADI.
std::vector<Cell> costContractCells() {
    std::vector<Cell> cells;
    auto add = [&](std::string label, std::function<Program()> build,
                   std::vector<int> grid) -> Cell& {
        cells.push_back({std::move(label), std::move(build), {}, {}});
        cells.back().target.gridExtents = std::move(grid);
        return cells.back();
    };
    struct Sizes {
        std::int64_t tomcatvN, tomcatvIters, dgefaN, appspN, appspIters;
    };
    const Sizes paper{513, 100, 1000, 64, 50}, simulation{65, 3, 64, 16, 2};
    for (const Sizes z : {paper, simulation}) {
        const std::string size = " n=" + std::to_string(z.tomcatvN) + " P=";
        for (int p : {1, 2, 4, 8, 16}) {
            const std::string at = size + std::to_string(p);
            for (int v = 0; v < 3; ++v) {
                auto build = [z] {
                    return programs::tomcatv(z.tomcatvN, z.tomcatvIters);
                };
                MappingOptions& m =
                    add("tomcatv v" + std::to_string(v) + at, build, {p})
                        .passes.mapping;
                m.privatization = v != 0;
                if (v == 1)
                    m.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
            }
            for (bool align : {false, true})
                add((align ? "dgefa aligned" : "dgefa replicated") + at,
                    [z] { return programs::dgefa(z.dgefaN); }, {p})
                    .passes.mapping.reductionAlignment = align;
        }
        for (int p : {2, 4, 8, 16})
            for (int v = 0; v < 5; ++v) {
                const bool oneD = v < 2;
                int rows = 1, cols = p;  // Table 3's 2-D grid
                while (rows * 2 <= cols / 2) {
                    rows *= 2;
                    cols /= 2;
                }
                Cell& c = add(
                    "appsp v" + std::to_string(v) + size + std::to_string(p),
                    [z, oneD] {
                        return programs::appsp(z.appspN, z.appspN, z.appspN,
                                               z.appspIters, oneD);
                    },
                    oneD ? std::vector<int>{p} : std::vector<int>{rows, cols});
                c.target.costModel.combineMessages = v == 4;
                c.passes.mapping.arrayPrivatization = v == 1 || v >= 3;
                c.passes.mapping.partialPrivatization = v >= 3;
            }
    }
    add("fig1", [] { return programs::fig1(32); }, {4});
    add("fig2", [] { return programs::fig2(32); }, {4});
    add("fig4", [] { return programs::fig4(16); }, {2, 2});
    add("fig5", [] { return programs::fig5(16); }, {2, 2});
    add("fig6", [] { return programs::fig6(16, 16, 16); }, {2, 2});
    add("fig7", [] { return programs::fig7(32); }, {4});
    add("adi", [] { return programs::adi(32, 2); }, {4});
    return cells;
}

void expectSameCost(const CostBreakdown& a, const CostBreakdown& b) {
    EXPECT_EQ(a.computeSec, b.computeSec);
    EXPECT_EQ(a.commSec, b.commSec);
    EXPECT_EQ(a.messageEvents, b.messageEvents);
    EXPECT_EQ(a.commBytes, b.commBytes);
}

void expectReportedCost(const obs::Json& j, const char* eventsKey,
                        const CostBreakdown& b) {
    EXPECT_EQ(j.at("compute_sec").numberValue(), b.computeSec);
    EXPECT_EQ(j.at("comm_sec").numberValue(), b.commSec);
    EXPECT_EQ(j.at("total_sec").numberValue(), b.totalSec());
    EXPECT_EQ(j.at(eventsKey).intValue(), b.messageEvents);
    EXPECT_EQ(j.at("comm_bytes").numberValue(), b.commBytes);
}

TEST(Target, CostContractHoldsOnEveryTableCellAndFigure) {
    constexpr TargetKind kKinds[] = {TargetKind::MessagePassing,
                                     TargetKind::SharedMemory};
    for (const Cell& cell : costContractCells()) {
        SCOPED_TRACE(cell.label);
        for (TargetKind compiled : kKinds) {
            SCOPED_TRACE(targetKindName(compiled));
            Program p = cell.build();
            TargetConfig conf = cell.target;
            conf.targetKind = compiled;
            Compilation c = Compiler::compile(p, conf, cell.passes);
            for (TargetKind kind : kKinds) {
                const Target& t = targetFor(kind);
                const CostBreakdown cb = t.predictCost(c.lowering(), conf);
                expectSameCost(t.predictDetailed(c.lowering(), conf).totals,
                               cb);
                expectSameCost(t.costReport(c.lowering(), conf).total, cb);
                expectSameCost(c.predictCostFor(kind), cb);
            }
            expectSameCost(c.predictCost(), c.predictCostFor(compiled));

            const obs::Json r = c.buildRunReport();
            expectReportedCost(r.at("cost_prediction"), "message_events",
                               c.predictCost());
            const obs::Json& cmp = r.at("target_comparison");
            expectReportedCost(cmp.at("mp"), "sync_events",
                               c.predictCostFor(TargetKind::MessagePassing));
            expectReportedCost(cmp.at("shm"), "sync_events",
                               c.predictCostFor(TargetKind::SharedMemory));
        }
    }
}

// The evaluator's totals, bit for bit, on every cell and both targets,
// through both walks (tests/pinned_costs.h).
TEST(Target, CostBitsPinnedOnEveryTableCellAndFigure) {
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const std::vector<Cell> cells = costContractCells();
    ASSERT_EQ(std::size(kPinnedCosts), 2 * cells.size());
    const PinnedCost* pin = kPinnedCosts;
    for (const Cell& cell : cells) {
        Program p = cell.build();
        const Compilation c = Compiler::compile(p, cell.target, cell.passes);
        for (TargetKind kind :
             {TargetKind::MessagePassing, TargetKind::SharedMemory}) {
            SCOPED_TRACE(cell.label + " " + targetKindName(kind));
            ASSERT_EQ(pin->cell, cell.label);
            ASSERT_STREQ(pin->target, targetKindName(kind));
            const Target& t = targetFor(kind);
            for (const CostBreakdown& cb :
                 {t.predictCost(c.lowering(), cell.target),
                  t.predictDetailed(c.lowering(), cell.target).totals}) {
                EXPECT_EQ(bits(cb.computeSec), bits(pin->computeSec));
                EXPECT_EQ(bits(cb.commSec), bits(pin->commSec));
                EXPECT_EQ(cb.messageEvents, pin->messageEvents);
                EXPECT_EQ(bits(cb.commBytes), bits(pin->commBytes));
            }
            ++pin;
        }
    }
}

// The pricing memo under sharing: threads that read one const
// Compilation at once, through every pricing entry point and in
// different orders (as concurrent service requests read one cached
// artifact), all see the same breakdown, bit-equal to a fresh walk of
// the evaluator.
TEST(CompilationPricing, SharedCompilationPricesConsistentlyAcrossThreads) {
    constexpr int kThreads = 4;
    const std::vector<std::pair<const char*, std::function<Program()>>>
        kernels = {{"tomcatv", [] { return programs::tomcatv(513, 100); }},
                   {"dgefa", [] { return programs::dgefa(1000); }}};
    for (const auto& [name, build] : kernels) {
        for (TargetKind compiled :
             {TargetKind::MessagePassing, TargetKind::SharedMemory}) {
            SCOPED_TRACE(std::string(name) + " " + targetKindName(compiled));
            Program p = build();
            TargetConfig conf;
            conf.gridExtents = {16};
            conf.targetKind = compiled;
            const Compilation c = Compiler::compile(p, conf);
            const auto fresh = [&](TargetKind kind) {
                return targetFor(kind).predictCost(c.lowering(), c.target());
            };

            struct Seen {
                CostBreakdown own, mp, shm;
                obs::Json report;
            };
            std::vector<Seen> seen(kThreads);
            std::latch start(kThreads);
            std::vector<std::thread> threads;
            for (int t = 0; t < kThreads; ++t)
                threads.emplace_back([&, t] {
                    Seen& s = seen[static_cast<size_t>(t)];
                    start.arrive_and_wait();
                    // Rotate the entry points so each slot's first
                    // filler differs from thread to thread.
                    for (int k = 0; k < 4; ++k) {
                        switch ((t + k) % 4) {
                            case 0: s.report = c.buildRunReport(); break;
                            case 1: s.own = c.predictCost(); break;
                            case 2:
                                s.mp = c.predictCostFor(
                                    TargetKind::MessagePassing);
                                break;
                            case 3:
                                s.shm =
                                    c.predictCostFor(TargetKind::SharedMemory);
                                break;
                        }
                    }
                });
            for (std::thread& th : threads) th.join();

            const CostBreakdown mp = fresh(TargetKind::MessagePassing);
            const CostBreakdown shm = fresh(TargetKind::SharedMemory);
            const CostBreakdown& own =
                compiled == TargetKind::SharedMemory ? shm : mp;
            for (const Seen& s : seen) {
                expectSameCost(s.own, own);
                expectSameCost(s.mp, mp);
                expectSameCost(s.shm, shm);
                expectReportedCost(s.report.at("cost_prediction"),
                                   "message_events", own);
                const obs::Json& cmp = s.report.at("target_comparison");
                expectReportedCost(cmp.at("mp"), "sync_events", mp);
                expectReportedCost(cmp.at("shm"), "sync_events", shm);
            }
        }
    }
}

TEST(Target, DescribeIsSelfContainedPerBackend) {
    TargetConfig conf;
    const obs::Json mp =
        targetFor(TargetKind::MessagePassing).describe(conf);
    EXPECT_EQ(mp.at("kind").stringValue(), "mp");
    EXPECT_TRUE(mp.at("alpha_sec").isNumber());
    EXPECT_TRUE(mp.at("beta_sec_per_byte").isNumber());

    const obs::Json shm =
        targetFor(TargetKind::SharedMemory).describe(conf);
    EXPECT_EQ(shm.at("kind").stringValue(), "shm");
    EXPECT_TRUE(shm.at("barrier_sec").isNumber());
    EXPECT_TRUE(shm.at("combine_stage_sec").isNumber());
    EXPECT_TRUE(shm.at("cache_line_bytes").isNumber());
}

}  // namespace
}  // namespace phpf
