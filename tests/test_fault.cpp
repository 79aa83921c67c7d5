// The deterministic fault-injection and recovery layer: spec parsing
// and seeded trigger schedules (support/fault.h), the reliable
// transport's ack/retransmit protocol (runtime/reliable_transport.h),
// checkpoint/restart of the SPMD simulator with the headline guarantee
// that a recovered run is bit-identical to a fault-free run, simulation
// cancellation, the hardened compile service (transient retry, the
// never-cache-a-failure rule, memory-pressure shedding), and the batch
// runner's crash-safe journal + resume.
//
// The FaultSmoke.* tests additionally honour a process-wide PHPF_FAULTS
// spec when one is set: CI's fault-injection smoke job runs exactly
// these under "net.drop:p=0.05;seed=1".

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "obs/metrics.h"
#include "programs/programs.h"
#include "runtime/reliable_transport.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "support/fault.h"

namespace phpf {
namespace {

using service::BatchOutcome;
using service::BatchRunOptions;
using service::BatchSpec;
using service::CompileRequest;
using service::CompileResult;
using service::CompileService;
using service::CompileStatus;
using service::ErrorCode;
using service::ServiceConfig;

// ---------------------------------------------------------------------
// Spec parsing and trigger schedules.

TEST(FaultSpec, ParsesSitesAndParameters) {
    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.configure(
        "net.drop:p=0.25;seed=7,proc.crash:nth=40;limit=3,"
        "net.delay:nth=2;ticks=5",
        &err))
        << err;
    EXPECT_TRUE(inj.enabled());
    ASSERT_NE(inj.find("net.drop"), nullptr);
    EXPECT_DOUBLE_EQ(inj.find("net.drop")->spec().probability, 0.25);
    EXPECT_EQ(inj.find("net.drop")->spec().seed, 7u);
    ASSERT_NE(inj.find("proc.crash"), nullptr);
    EXPECT_EQ(inj.find("proc.crash")->spec().nth, 40);
    EXPECT_EQ(inj.find("proc.crash")->spec().limit, 3);
    EXPECT_EQ(inj.find("net.delay")->spec().ticks, 5);
    EXPECT_EQ(inj.find("net.dup"), nullptr);
    inj.reset();
    EXPECT_FALSE(inj.enabled());
}

TEST(FaultSpec, RejectsMalformedSpecsAndKeepsOldConfig) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:nth=3"));
    std::string err;
    EXPECT_FALSE(inj.configure("net.drop:p=banana", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(inj.configure("net.drop:p=1.5", &err));    // out of range
    EXPECT_FALSE(inj.configure("net.drop", &err));          // no trigger
    EXPECT_FALSE(inj.configure(":p=0.5", &err));            // empty site
    EXPECT_FALSE(inj.configure("net.drop:wat=1", &err));    // unknown param
    EXPECT_FALSE(inj.configure("a:nth=1,a:nth=2", &err));   // duplicate
    // The previous good configuration survived every failed attempt.
    ASSERT_NE(inj.find("net.drop"), nullptr);
    EXPECT_EQ(inj.find("net.drop")->spec().nth, 3);
}

TEST(FaultSite, NthFiresOnExactMultiples) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("x:nth=3"));
    FaultSite* s = inj.find("x");
    std::vector<int> fired;
    for (int i = 1; i <= 9; ++i)
        if (FaultInjector::poll(s)) fired.push_back(i);
    EXPECT_EQ(fired, (std::vector<int>{3, 6, 9}));
    EXPECT_EQ(s->polls(), 9);
    EXPECT_EQ(s->fires(), 3);
}

TEST(FaultSite, LimitCapsFires) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("x:nth=2;limit=2"));
    FaultSite* s = inj.find("x");
    int fires = 0;
    for (int i = 0; i < 20; ++i)
        if (s->fire()) ++fires;
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(s->fires(), 2);
    EXPECT_EQ(s->polls(), 20);
}

TEST(FaultSite, SameSeedSameSchedule) {
    const auto schedule = [](const std::string& spec) {
        FaultInjector inj;
        EXPECT_TRUE(inj.configure(spec));
        FaultSite* s = inj.find("net.drop");
        std::vector<bool> fires;
        fires.reserve(200);
        for (int i = 0; i < 200; ++i) fires.push_back(s->fire());
        return fires;
    };
    const auto a = schedule("net.drop:p=0.3;seed=42");
    EXPECT_EQ(a, schedule("net.drop:p=0.3;seed=42"));
    EXPECT_NE(a, schedule("net.drop:p=0.3;seed=43"));
    // Default seed is stable too (derived from the site name).
    EXPECT_EQ(schedule("net.drop:p=0.3"), schedule("net.drop:p=0.3"));
}

TEST(FaultInjectorTest, ExportsCountersToRegistry) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("x:nth=2"));
    FaultSite* s = inj.find("x");
    for (int i = 0; i < 10; ++i) s->fire();
    obs::MetricRegistry reg;
    inj.exportTo(reg);
    EXPECT_EQ(reg.counter("fault.x.polls").value(), 10);
    EXPECT_EQ(reg.counter("fault.x.fires").value(), 5);
    // Re-export after more polls stays set-to-current, not doubled.
    for (int i = 0; i < 2; ++i) s->fire();
    inj.exportTo(reg);
    EXPECT_EQ(reg.counter("fault.x.polls").value(), 12);
    EXPECT_EQ(reg.counter("fault.x.fires").value(), 6);
}

TEST(ErrorCodeTaxonomy, TransientClassification) {
    using service::isTransient;
    EXPECT_TRUE(isTransient(ErrorCode::TransientFault));
    EXPECT_TRUE(isTransient(ErrorCode::MemoryPressure));
    EXPECT_FALSE(isTransient(ErrorCode::None));
    EXPECT_FALSE(isTransient(ErrorCode::ParseError));
    EXPECT_FALSE(isTransient(ErrorCode::DeadlineExceeded));
    EXPECT_FALSE(isTransient(ErrorCode::Internal));
    EXPECT_FALSE(isTransient(ErrorCode::ProgramFault));
    EXPECT_STREQ(service::errorCodeName(ErrorCode::TransientFault),
                 "transient-fault");
    EXPECT_STREQ(service::errorCodeName(ErrorCode::None), "none");
}

// ---------------------------------------------------------------------
// Reliable transport: ack + retransmit + backoff.

TEST(Transport, RetransmitsDroppedMessages) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:nth=2,net.dup:nth=5"));
    ReliableTransport t(inj, TransportConfig{});
    for (int i = 0; i < 10; ++i) t.deliver("test message");
    const TransportStats& s = t.stats();
    EXPECT_EQ(s.messages, 10);
    EXPECT_GT(s.drops, 0);
    EXPECT_EQ(s.retransmits, s.drops);  // every loss was resent
    EXPECT_GT(s.duplicates, 0);
    EXPECT_GT(s.backoffTicks, 0);
}

TEST(Transport, ExhaustedRetriesSurfaceAsSimFault) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:p=1"));  // network stays down
    TransportConfig cfg;
    cfg.maxAttempts = 3;
    cfg.timeoutTicks = 1 << 20;  // attempts exhaust first
    ReliableTransport t(inj, cfg);
    try {
        t.deliver("doomed");
        FAIL() << "expected SimFault";
    } catch (const SimFault& e) {
        EXPECT_EQ(e.site(), faultsite::kNetDrop);
        EXPECT_NE(std::string(e.what()).find("doomed"), std::string::npos);
    }
}

TEST(Transport, TickBudgetTimesOutSlowNetworks) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.delay:p=1;ticks=100"));
    TransportConfig cfg;
    cfg.timeoutTicks = 50;  // one injected delay already over budget
    ReliableTransport t(inj, cfg);
    try {
        t.deliver("slow");
        FAIL() << "expected SimFault";
    } catch (const SimFault& e) {
        EXPECT_EQ(e.site(), faultsite::kNetDelay);
    }
}

TEST(Transport, BackoffDoublesPerAttemptExactly) {
    // The bounded-exponential contract, pinned tick by tick: attempt k
    // backs off base << (k-1), so 5 dead attempts at base 2 cost
    // 2+4+8+16+32 simulated ticks — no more, no less.
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:p=1"));
    TransportConfig cfg;
    cfg.maxAttempts = 5;
    cfg.baseBackoffTicks = 2;
    cfg.timeoutTicks = 1 << 20;  // attempts exhaust first
    ReliableTransport t(inj, cfg);
    EXPECT_THROW(t.deliver("x"), SimFault);
    EXPECT_EQ(t.stats().retransmits, 5);
    EXPECT_EQ(t.stats().backoffTicks, 2 + 4 + 8 + 16 + 32);
}

TEST(Transport, BackoffShiftClampStopsExponentialGrowth) {
    // Past attempt 31 the shift clamps at 30: backoff plateaus instead
    // of overflowing into negative ticks. 40 dead attempts at base 1 =
    // (2^31 - 1) for attempts 1..31, then nine more at the 2^30 cap.
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:p=1"));
    TransportConfig cfg;
    cfg.maxAttempts = 40;
    cfg.baseBackoffTicks = 1;
    cfg.timeoutTicks = std::numeric_limits<std::int64_t>::max();
    ReliableTransport t(inj, cfg);
    EXPECT_THROW(t.deliver("x"), SimFault);
    const std::int64_t cap = std::int64_t{1} << 30;
    EXPECT_EQ(t.stats().backoffTicks,
              ((std::int64_t{1} << 31) - 1) + 9 * cap);
    EXPECT_GT(t.stats().backoffTicks, 0);  // i.e. it did not overflow
}

// ---------------------------------------------------------------------
// Simulator recovery: everything a fault-free run reports, captured for
// exact comparison against a faulted-but-recovered run.

struct SimSnapshot {
    std::int64_t transfers = 0;
    std::int64_t events = 0;
    std::int64_t procStmts = 0;
    double imbalance = 0.0;
    std::vector<ProcSimMetrics> perProc;
    std::vector<std::int64_t> perOpEvents;
    std::vector<std::int64_t> perOpElems;
    std::vector<double> errors;
};

SimSnapshot snapshot(const Compilation& c, const SpmdSimulator& sim,
                     const std::vector<std::string>& outputs) {
    SimSnapshot s;
    s.transfers = sim.elementTransfers();
    s.events = sim.messageEvents();
    s.procStmts = sim.statementsExecutedAllProcs();
    s.imbalance = sim.imbalanceRatio();
    s.perProc = sim.procMetrics();
    for (const CommOp& op : c.lowering().commOps()) {
        s.perOpEvents.push_back(sim.eventsOfOp(op.id));
        s.perOpElems.push_back(sim.elementsOfOp(op.id));
    }
    for (const std::string& name : outputs)
        s.errors.push_back(sim.maxErrorVsOracle(name));
    return s;
}

void expectIdentical(const SimSnapshot& a, const SimSnapshot& b) {
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.procStmts, b.procStmts);
    EXPECT_EQ(a.imbalance, b.imbalance);  // bit-identical, not approx
    EXPECT_EQ(a.perOpEvents, b.perOpEvents);
    EXPECT_EQ(a.perOpElems, b.perOpElems);
    EXPECT_EQ(a.errors, b.errors);
    ASSERT_EQ(a.perProc.size(), b.perProc.size());
    for (size_t p = 0; p < a.perProc.size(); ++p) {
        EXPECT_EQ(a.perProc[p].stmtsExecuted, b.perProc[p].stmtsExecuted);
        EXPECT_EQ(a.perProc[p].stmtsSkipped, b.perProc[p].stmtsSkipped);
        EXPECT_EQ(a.perProc[p].recvElements, b.perProc[p].recvElements);
        EXPECT_EQ(a.perProc[p].sentElements, b.perProc[p].sentElements);
    }
}

void seedTomcatv(Interpreter& o) {
    for (std::int64_t i = 1; i <= 10; ++i)
        for (std::int64_t j = 1; j <= 10; ++j) {
            o.setElement("x", {i, j},
                         static_cast<double>(i) +
                             0.1 * static_cast<double>(j));
            o.setElement("y", {i, j},
                         static_cast<double>(j) -
                             0.05 * static_cast<double>(i));
        }
}

void seedDgefa(Interpreter& o) {
    for (std::int64_t r = 1; r <= 12; ++r)
        for (std::int64_t c = 1; c <= 12; ++c)
            o.setElement("A", {r, c},
                         r == c ? 10.0 + static_cast<double>(r)
                                : 1.0 / static_cast<double>(r + c));
}

/// Compile `p`, run fault-free, run again with `spec` + checkpoints,
/// and require the recovered run to be bit-identical on results and
/// every metric the paper's tables report.
void checkRecoveredRunIdentical(Program& p, const std::vector<int>& grid,
                                const std::function<void(Interpreter&)>& seed,
                                const std::vector<std::string>& outputs,
                                const std::string& spec,
                                bool expectRecoveries) {
    TargetConfig opts;
    opts.gridExtents = grid;
    Compilation c = Compiler::compile(p, opts);

    SimulationRequest plain;
    plain.seed = seed;
    auto base = c.simulate(plain);
    EXPECT_FALSE(base->faultLayerActive());
    const SimSnapshot want = snapshot(c, *base, outputs);
    for (const double err : want.errors) EXPECT_EQ(err, 0.0);

    FaultInjector inj;
    ASSERT_TRUE(inj.configure(spec));
    SimulationRequest faulted;
    faulted.seed = seed;
    faulted.faults = &inj;
    faulted.checkpointEvery = 10;
    auto sim = c.simulate(faulted);
    EXPECT_TRUE(sim->faultLayerActive());
    if (expectRecoveries) {
        EXPECT_GT(sim->recoveries(), 0);
        EXPECT_GT(sim->checkpointsTaken(), 1);
    }
    expectIdentical(want, snapshot(c, *sim, outputs));
}

TEST(SimRecovery, TomcatvCrashRecoveryBitIdentical) {
    Program p = programs::tomcatv(10, 2);
    checkRecoveredRunIdentical(p, {4}, seedTomcatv, {"x", "y"},
                               "proc.crash:nth=17;limit=3", true);
}

TEST(SimRecovery, DgefaCrashRecoveryBitIdentical) {
    Program p = programs::dgefa(12);
    checkRecoveredRunIdentical(p, {4}, seedDgefa, {"A"},
                               "proc.crash:nth=17;limit=3", true);
}

TEST(SimRecovery, AppspCrashRecoveryBitIdentical) {
    Program p = programs::appsp(6, 6, 6, 1, /*oneD=*/true);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t m = 1; m <= 5; ++m)
            for (std::int64_t i = 1; i <= 6; ++i)
                for (std::int64_t j = 1; j <= 6; ++j)
                    for (std::int64_t k = 1; k <= 6; ++k)
                        o.setElement("rsd", {m, i, j, k},
                                     0.01 * static_cast<double>(m + i) +
                                         0.001 * static_cast<double>(j * k));
    };
    checkRecoveredRunIdentical(p, {4}, seed, {"rsd"},
                               "proc.crash:nth=17;limit=3", true);
}

TEST(SimRecovery, ControlFlowCrashRecoveryBitIdentical) {
    // Fig. 7 exercises privatized control flow: crashes inside If
    // branches must resume through the recorded branch.
    Program p = programs::fig7(16);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 16; ++i) {
            o.setElement("A", {i}, static_cast<double>(i % 5) - 2.0);
            o.setElement("B", {i}, static_cast<double>(i));
        }
    };
    checkRecoveredRunIdentical(p, {4}, seed, {"A", "C"},
                               "proc.crash:nth=7;limit=4", true);
}

TEST(SimRecovery, LossyNetworkRecoveryBitIdentical) {
    Program p = programs::tomcatv(10, 2);
    checkRecoveredRunIdentical(
        p, {4}, seedTomcatv, {"x", "y"},
        "net.drop:p=0.2;seed=3,net.dup:p=0.1;seed=4,"
        "net.delay:p=0.1;seed=5;ticks=2",
        /*expectRecoveries=*/false);
}

TEST(SimRecovery, TransportStatsStaySeparateFromSimMetrics) {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:p=0.3;seed=11"));
    SimulationRequest req;
    req.seed = seedTomcatv;
    req.faults = &inj;
    auto sim = c.simulate(req);
    ASSERT_NE(sim->transportStats(), nullptr);
    EXPECT_GT(sim->transportStats()->messages, 0);
    EXPECT_GT(sim->transportStats()->drops, 0);
    EXPECT_EQ(sim->transportStats()->retransmits,
              sim->transportStats()->drops);
    // The injected losses never leak into the paper-facing accounting:
    // element transfers equal the fault-free count, not count + resends.
    SimulationRequest plain;
    plain.seed = seedTomcatv;
    auto base = c.simulate(plain);
    EXPECT_EQ(sim->elementTransfers(), base->elementTransfers());
    EXPECT_EQ(sim->messageEvents(), base->messageEvents());
}

TEST(SimRecovery, DeadNetworkSurfacesAsSimFault) {
    Program p = programs::fig1(24);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:p=1"));
    SimulationRequest req;
    req.faults = &inj;
    req.maxAttempts = 3;
    try {
        auto sim = c.simulate(req);
        FAIL() << "expected SimFault";
    } catch (const SimFault& e) {
        EXPECT_EQ(e.site(), faultsite::kNetDrop);
    }
}

TEST(SimRecovery, RecoveryBudgetExhaustionIsTyped) {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("proc.crash:nth=5"));  // unlimited crashes
    SimulationRequest req;
    req.seed = seedTomcatv;
    req.faults = &inj;
    req.checkpointEvery = 50;
    req.maxRecoveries = 3;
    try {
        auto sim = c.simulate(req);
        FAIL() << "expected SimFault";
    } catch (const SimFault& e) {
        EXPECT_EQ(e.site(), faultsite::kProcCrash);
    }
}

TEST(SimRecovery, PeriodicCheckpointsWithoutFaultsChangeNothing) {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest plain;
    plain.seed = seedTomcatv;
    auto base = c.simulate(plain);
    SimulationRequest ck;
    ck.seed = seedTomcatv;
    ck.checkpointEvery = 25;
    auto sim = c.simulate(ck);
    EXPECT_GT(sim->checkpointsTaken(), 1);
    EXPECT_EQ(sim->recoveries(), 0);
    expectIdentical(snapshot(c, *base, {"x", "y"}),
                    snapshot(c, *sim, {"x", "y"}));
}

TEST(SimRecovery, EventMemoSurvivesCrashReplayOnEitherEngine) {
    // The b(i-1) shift is placed in the j loop, outside the inner i
    // loop, so its misses at i = 5, 9, 13 record the same op and
    // context. A crash just after the first of them restores the
    // checkpoint taken before it, whose event set lacks that event:
    // the replay must record it again, although the op's event memo
    // still holds that context. Crashing at every instance with a
    // checkpoint at every boundary hits this once per context.
    DiagEngine diags;
    Parser parser(R"(program memo
  real a(16), b(16)
!hpf$ distribute (block) :: a
!hpf$ align (i) with a(i) :: b
  do j = 1, 3
    do i = 1, 16
      b(i) = a(i) + 1.0
    end do
    do i = 2, 16
      a(i) = b(i-1)
    end do
  end do
end
)",
                  diags);
    Program p = parser.parse();
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    const int instances = 3 * (16 + 15);
    for (const SimEngine engine : {SimEngine::Interp, SimEngine::Bytecode}) {
        SCOPED_TRACE(simEngineName(engine));
        SimulationRequest req;
        req.engine = engine;
        auto plain = c.simulate(req);
        ASSERT_GE(plain->messageEvents(), 3);
        req.checkpointEvery = 1;
        for (int nth = 1; nth <= instances; ++nth) {
            SCOPED_TRACE("crash at instance " + std::to_string(nth));
            FaultInjector inj;
            ASSERT_TRUE(inj.configure("proc.crash:nth=" + std::to_string(nth) +
                                      ";limit=1"));
            req.faults = &inj;
            auto rec = c.simulate(req);
            ASSERT_EQ(rec->recoveries(), 1);
            ASSERT_EQ(rec->messageEvents(), plain->messageEvents());
            for (const CommOp& op : c.lowering().commOps())
                ASSERT_EQ(rec->eventsOfOp(op.id), plain->eventsOfOp(op.id))
                    << "op " << op.id;
        }
    }
}

// ---------------------------------------------------------------------
// Cancellation mid-simulate (satellite of the service deadline story).

TEST(SimCancel, CancelledTokenStopsSimulationCleanly) {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    CancelSource src;
    src.setDeadlineAfter(std::chrono::nanoseconds(1));  // expires at once
    SimulationRequest req;
    req.seed = seedTomcatv;
    req.cancel = src.token();
    try {
        auto sim = c.simulate(req);
        FAIL() << "expected SimFault";
    } catch (const SimFault& e) {
        EXPECT_EQ(e.site(), faultsite::kSimCancel);
    }
    // The compilation (and a fresh simulation) is fully usable after —
    // the cancelled run left no shared state behind.
    SimulationRequest plain;
    plain.seed = seedTomcatv;
    auto sim = c.simulate(plain);
    EXPECT_EQ(sim->maxErrorVsOracle("x"), 0.0);
    EXPECT_EQ(sim->maxErrorVsOracle("y"), 0.0);
}

// ---------------------------------------------------------------------
// Hardened compile service.

CompileRequest fig1Request(std::int64_t n = 24) {
    CompileRequest req;
    req.name = "fig1";
    req.build = [n] { return programs::fig1(n); };
    req.target.gridExtents = {4};
    return req;
}

TEST(ServiceFaults, TransientFailureIsNeverCached) {
    // First of two identical requests fails with an injected transient
    // fault (retries disabled); the second MUST compile fresh — a cache
    // serving the poisoned failure would return Error forever.
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("svc.transient:nth=1;limit=1"));
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 0;
    cfg.faults = &inj;
    CompileService svc(cfg);

    const CompileResult r1 = svc.compile(fig1Request());
    EXPECT_EQ(r1.status, CompileStatus::Error);
    EXPECT_EQ(r1.code, ErrorCode::TransientFault);
    EXPECT_EQ(r1.artifact, nullptr);

    const CompileResult r2 = svc.compile(fig1Request());
    ASSERT_EQ(r2.status, CompileStatus::Ok) << r2.error;
    EXPECT_FALSE(r2.cacheHit);  // compiled, not served from a poisoned entry
    ASSERT_NE(r2.artifact, nullptr);

    const CompileResult r3 = svc.compile(fig1Request());
    EXPECT_EQ(r3.status, CompileStatus::Ok);
    EXPECT_TRUE(r3.cacheHit);  // the SUCCESS was cached

    EXPECT_EQ(svc.stats().transientFaults, 1);
    EXPECT_EQ(svc.stats().retries, 0);
}

TEST(ServiceFaults, TransientFailureRetriesTransparently) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("svc.transient:nth=1;limit=2"));
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 3;
    cfg.retryBackoffMs = 0;
    cfg.faults = &inj;
    CompileService svc(cfg);
    const CompileResult r = svc.compile(fig1Request());
    ASSERT_EQ(r.status, CompileStatus::Ok) << r.error;
    EXPECT_EQ(r.code, ErrorCode::None);
    EXPECT_EQ(r.retries, 2);  // two injected failures, then success
    EXPECT_EQ(svc.stats().retries, 2);
    EXPECT_EQ(svc.stats().transientFaults, 2);
}

TEST(ServiceFaults, RetryBudgetExhaustionStaysTransientTyped) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("svc.transient:nth=1"));  // always fails
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 2;
    cfg.retryBackoffMs = 0;
    cfg.faults = &inj;
    CompileService svc(cfg);
    const CompileResult r = svc.compile(fig1Request());
    EXPECT_EQ(r.status, CompileStatus::Error);
    EXPECT_EQ(r.code, ErrorCode::TransientFault);
    EXPECT_EQ(r.retries, 2);
    EXPECT_EQ(r.artifact, nullptr);
}

TEST(ServiceFaults, MemoryPressureShedsCacheNotCorrectness) {
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("svc.mem_pressure:nth=4;limit=1"));
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.faults = &inj;
    CompileService svc(cfg);
    for (std::int64_t n : {8, 16, 24, 32}) {
        const CompileResult r = svc.compile(fig1Request(n));
        ASSERT_EQ(r.status, CompileStatus::Ok) << r.error;
    }
    EXPECT_GT(svc.stats().shedEntries, 0);
    // Shedding only costs recompiles, never wrong results.
    const CompileResult again = svc.compile(fig1Request(8));
    EXPECT_EQ(again.status, CompileStatus::Ok);
}

TEST(ServiceFaults, ExplicitShedHookDropsToTarget) {
    ServiceConfig cfg;
    cfg.workers = 1;
    CompileService svc(cfg);
    for (std::int64_t n : {8, 16, 24, 32})
        ASSERT_EQ(svc.compile(fig1Request(n)).status, CompileStatus::Ok);
    EXPECT_EQ(svc.stats().cache.size, 4u);
    const std::size_t dropped = svc.shedCache(0);
    EXPECT_EQ(dropped, 4u);
    EXPECT_EQ(svc.stats().cache.size, 0u);
    // Still a working service; the entry re-materializes on demand.
    const CompileResult r = svc.compile(fig1Request(8));
    EXPECT_EQ(r.status, CompileStatus::Ok);
    EXPECT_FALSE(r.cacheHit);
}

TEST(ServiceFaults, DeadlineExceededLeavesServiceUsable) {
    ServiceConfig cfg;
    cfg.workers = 1;
    CompileService svc(cfg);
    CompileRequest req = fig1Request();
    // The builder outsleeps the deadline, so the budget is certainly
    // gone by the first between-stage cancellation check.
    req.build = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return programs::fig1(24);
    };
    req.deadlineMs = 1;
    const CompileResult r = svc.compile(req);
    EXPECT_EQ(r.status, CompileStatus::DeadlineExceeded);
    EXPECT_EQ(r.code, ErrorCode::DeadlineExceeded);
    EXPECT_EQ(r.artifact, nullptr);
    // The failure was not cached and the service still compiles.
    const CompileResult ok = svc.compile(fig1Request());
    ASSERT_EQ(ok.status, CompileStatus::Ok) << ok.error;
    EXPECT_FALSE(ok.cacheHit);
}

// ---------------------------------------------------------------------
// Batch journal + resume.

BatchSpec smallMatrix() {
    BatchSpec spec;
    const auto add = [&](const std::string& program, std::int64_t n) {
        service::BatchJob job;
        job.name = program + "/n=" + std::to_string(n);
        job.program = program;
        job.n = n;
        job.target.gridExtents = {2};
        spec.jobs.push_back(std::move(job));
    };
    add("fig1", 16);
    add("fig2", 16);
    add("fig5", 8);
    add("fig7", 16);
    return spec;
}

std::map<std::string, int> journalJobCounts(const std::string& path) {
    std::map<std::string, int> counts;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        std::string perr;
        const obs::Json row = obs::Json::parse(line, &perr);
        if (!perr.empty() || !row.isObject()) continue;
        if (row.find("summary") != nullptr) continue;
        if (const obs::Json* v = row.find("job"))
            ++counts[v->stringValue()];
    }
    return counts;
}

TEST(BatchResume, KillAndResumeCompletesMatrixExactlyOnce) {
    const std::string journal =
        testing::TempDir() + "phpf_fault_batch_journal.jsonl";
    std::remove(journal.c_str());

    // Run 1: the batch.abort site kills the runner right after the
    // second row reached the journal — the simulated SIGKILL.
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("batch.abort:nth=2;limit=1"));
    BatchRunOptions opts;
    opts.journalPath = journal;
    opts.faults = &inj;
    std::ostringstream out1;
    {
        CompileService svc;
        const BatchOutcome o = runBatch(svc, smallMatrix(), out1, opts);
        EXPECT_TRUE(o.aborted);
        EXPECT_EQ(o.ok, 2);
        EXPECT_EQ(o.skipped, 0);
    }
    // No summary row made it out of the aborted run.
    EXPECT_EQ(out1.str().find("\"summary\""), std::string::npos);
    EXPECT_EQ(journalJobCounts(journal).size(), 2u);

    // Run 2: --resume skips what the journal already has and finishes
    // the rest; the summary appears (stdout only, never the journal).
    BatchRunOptions resumeOpts;
    resumeOpts.journalPath = journal;
    resumeOpts.resume = true;
    FaultInjector none;  // no faults this time
    resumeOpts.faults = &none;
    std::ostringstream out2;
    {
        CompileService svc;
        const BatchOutcome o = runBatch(svc, smallMatrix(), out2, resumeOpts);
        EXPECT_FALSE(o.aborted);
        EXPECT_EQ(o.skipped, 2);
        EXPECT_EQ(o.ok, 2);
        EXPECT_EQ(o.failed, 0);
    }
    EXPECT_NE(out2.str().find("\"summary\": true"), std::string::npos);

    // Every job ran exactly once across the kill + resume sequence.
    const auto counts = journalJobCounts(journal);
    EXPECT_EQ(counts.size(), 4u);
    for (const auto& [name, n] : counts)
        EXPECT_EQ(n, 1) << name;
    std::remove(journal.c_str());
}

TEST(BatchResume, TornJournalTailLineIsIgnored) {
    const std::string journal =
        testing::TempDir() + "phpf_fault_torn_journal.jsonl";
    std::remove(journal.c_str());
    {
        std::ofstream j(journal);
        j << R"({"job":"fig1/n=16","status":"ok"})" << "\n";
        j << R"({"job":"fig2/n=16","sta)";  // killed mid-write
    }
    BatchRunOptions opts;
    opts.journalPath = journal;
    opts.resume = true;
    FaultInjector none;
    opts.faults = &none;
    std::ostringstream out;
    CompileService svc;
    const BatchOutcome o = runBatch(svc, smallMatrix(), out, opts);
    // The torn row does not count as done: fig2 re-runs.
    EXPECT_EQ(o.skipped, 1);
    EXPECT_EQ(o.ok, 3);
    EXPECT_EQ(o.failed, 0);
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------------
// CI fault-injection smoke: these honour PHPF_FAULTS when set (the
// smoke job exports net.drop:p=0.05;seed=1 and filters on FaultSmoke.*)
// and fall back to a local equivalent otherwise, so they are meaningful
// in both environments.

const FaultInjector* smokeInjector(FaultInjector* local) {
    if (const FaultInjector* env = FaultInjector::processIfEnabled())
        return env;
    EXPECT_TRUE(local->configure("net.drop:p=0.05;seed=1"));
    return local;
}

TEST(FaultSmoke, RecoveredTomcatvMatchesFaultFree) {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest plain;
    plain.seed = seedTomcatv;
    auto base = c.simulate(plain);
    const SimSnapshot want = snapshot(c, *base, {"x", "y"});

    FaultInjector local;
    SimulationRequest req;
    req.seed = seedTomcatv;
    req.faults = smokeInjector(&local);
    req.checkpointEvery = 20;
    auto sim = c.simulate(req);
    expectIdentical(want, snapshot(c, *sim, {"x", "y"}));
}

TEST(FaultSmoke, ServiceCompilesUnderInjection) {
    FaultInjector local;
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.faults = smokeInjector(&local);
    CompileService svc(cfg);
    for (std::int64_t n : {16, 24, 16}) {
        const CompileResult r = svc.compile(fig1Request(n));
        // Under net.* specs the service is untouched; under svc.* specs
        // the retry loop must still converge to a success for a
        // bounded-probability transient site.
        ASSERT_EQ(r.status, CompileStatus::Ok) << r.error;
    }
    EXPECT_GE(svc.stats().requests, 3);
}

}  // namespace
}  // namespace phpf
