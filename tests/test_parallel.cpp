// The lockstep worker pool and the interned message-event set
// (support/parallel.h, support/interned_events.h), plus the headline
// guarantee of the multi-threaded SPMD simulator: results and every
// metric are bit-identical for any lockstep thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "driver/compiler.h"
#include "programs/programs.h"
#include "support/interned_events.h"
#include "support/parallel.h"

using namespace phpf;

namespace {

TEST(ResolveThreadCount, ExplicitRequestTakenAsIs) {
    EXPECT_EQ(resolveThreadCount(3), 3);
    EXPECT_EQ(resolveThreadCount(1), 1);
}

TEST(ResolveThreadCount, ClampedToMaxUseful) {
    EXPECT_EQ(resolveThreadCount(8, 4), 4);
    EXPECT_EQ(resolveThreadCount(2, 4), 2);
}

TEST(ResolveThreadCount, AutoReadsEnvironment) {
    ::setenv("PHPF_SIM_THREADS", "3", 1);
    EXPECT_EQ(resolveThreadCount(0), 3);
    EXPECT_EQ(resolveThreadCount(0, 2), 2);
    // An explicit request wins over the environment.
    EXPECT_EQ(resolveThreadCount(5), 5);
    ::unsetenv("PHPF_SIM_THREADS");
    EXPECT_GE(resolveThreadCount(0), 1);
}

TEST(SimThreads, DefaultOptionsSimulateOnOneThread) {
    // Extra simulator threads are opt-in (--sim-threads / simThreads);
    // a default compilation simulates on the calling thread alone.
    Program p = programs::fig1(16);
    TargetConfig target;
    target.gridExtents = {4};
    const Compilation c = Compiler::compile(p, target, PassOptions{});
    EXPECT_EQ(c.simulate({})->threads(), 1);
}

TEST(LockstepPool, EveryWorkerRunsEachPhase) {
    LockstepPool pool(4);
    ASSERT_EQ(pool.threads(), 4);
    std::vector<std::atomic<int>> hits(4);
    struct Ctx {
        std::vector<std::atomic<int>>* hits;
    } ctx{&hits};
    for (int phase = 0; phase < 100; ++phase) {
        pool.run(
            [](void* c, int w) {
                (*static_cast<Ctx*>(c)->hits)[static_cast<size_t>(w)]
                    .fetch_add(1);
            },
            &ctx);
    }
    for (int w = 0; w < 4; ++w) EXPECT_EQ(hits[static_cast<size_t>(w)], 100);
    EXPECT_GT(pool.busyNs(), 0);
}

TEST(LockstepPool, SingleThreadDegradesToPlainCall) {
    LockstepPool pool(1);
    int calls = 0;
    auto task = [&](int w) {
        EXPECT_EQ(w, 0);
        ++calls;
    };
    pool.runOn(task);
    pool.runOn(task);
    EXPECT_EQ(calls, 2);
}

TEST(LockstepPool, ChunksPartitionTheRange) {
    for (const std::int64_t n : {0, 1, 7, 64, 1000}) {
        for (const int t : {1, 2, 3, 8}) {
            std::int64_t covered = 0;
            std::int64_t prevEnd = 0;
            for (int w = 0; w < t; ++w) {
                const auto [b, e] = LockstepPool::chunkOf(n, w, t);
                EXPECT_EQ(b, prevEnd);  // contiguous, in order
                EXPECT_LE(b, e);
                covered += e - b;
                prevEnd = e;
            }
            EXPECT_EQ(covered, n);
            EXPECT_EQ(prevEnd, n);
        }
    }
}

TEST(ParallelFor, SumsMatchAcrossPoolSizes) {
    constexpr std::int64_t kN = 10000;
    auto sumWith = [](LockstepPool* pool) {
        std::vector<std::int64_t> partial(pool ? pool->threads() : 1, 0);
        parallelFor(pool, kN, [&](std::int64_t b, std::int64_t e, int w) {
            for (std::int64_t i = b; i < e; ++i)
                partial[static_cast<size_t>(w)] += i;
        });
        std::int64_t total = 0;
        for (const std::int64_t p : partial) total += p;
        return total;
    };
    const std::int64_t expect = kN * (kN - 1) / 2;
    EXPECT_EQ(sumWith(nullptr), expect);
    LockstepPool pool(4);
    EXPECT_EQ(sumWith(&pool), expect);
}

TEST(TaskPool, ThrowingTaskDoesNotKillWorkers) {
    TaskPool pool(2);
    std::atomic<int> ran{0};
    // A throwing task escaping into std::thread would terminate the
    // process; the pool must swallow it, count it, and keep serving.
    pool.post([] { throw std::runtime_error("job 1 exploded"); });
    pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(pool.failures(), 1);
    EXPECT_EQ(pool.lastError(), "job 1 exploded");
    pool.post([] { throw 42; });  // non-std throw
    pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.failures(), 2);
    EXPECT_EQ(pool.lastError(), "unknown exception");
    // The pool is still alive after the failures.
    pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(pool.failures(), 2);
}

TEST(TaskPool, CleanRunRecordsNoFailures) {
    TaskPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(pool.failures(), 0);
    EXPECT_TRUE(pool.lastError().empty());
}

TEST(ContextInterner, StableDenseIds) {
    ContextInterner in;
    EXPECT_EQ(in.intern({1, 2, 3}), 0);
    EXPECT_EQ(in.intern({1, 2, 4}), 1);
    EXPECT_EQ(in.intern({1, 2, 3}), 0);
    EXPECT_EQ(in.intern({}), 2);
    EXPECT_EQ(in.intern({}), 2);
    EXPECT_EQ(in.size(), 3);
}

TEST(InternedEventSet, DeduplicatesOpContextPairs) {
    InternedEventSet ev;
    EXPECT_TRUE(ev.record(0, {1, 1}));
    EXPECT_FALSE(ev.record(0, {1, 1}));
    EXPECT_TRUE(ev.record(1, {1, 1}));  // same context, different op
    EXPECT_TRUE(ev.record(0, {1, 2}));
    EXPECT_EQ(ev.size(), 3);
    EXPECT_EQ(ev.contexts(), 2);
    ev.clear();
    EXPECT_EQ(ev.size(), 0);
    EXPECT_TRUE(ev.record(0, {1, 1}));
}

// --- cross-thread determinism of the simulator ------------------------

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

SimSnapshot snapshotAt(Compilation& c,
                       const std::function<void(Interpreter&)>& seed,
                       const std::vector<std::string>& outputs, int threads) {
    auto sim = c.simulate({.threads = threads, .seed = seed});
    EXPECT_EQ(sim->threads(), std::min(threads, sim->procCount()));
    SimSnapshot s;
    s.transfers = sim->elementTransfers();
    s.events = sim->messageEvents();
    s.procStmts = sim->statementsExecutedAllProcs();
    s.imbalance = sim->imbalanceRatio();
    s.perProc = sim->procMetrics();
    for (const CommOp& op : c.lowering().commOps()) {
        s.perOpEvents.push_back(sim->eventsOfOp(op.id));
        s.perOpElems.push_back(sim->elementsOfOp(op.id));
    }
    for (const std::string& name : outputs)
        s.errors.push_back(sim->maxErrorVsOracle(name));
    return s;
}

void expectIdentical(const SimSnapshot& a, const SimSnapshot& b, int threads) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
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

void checkDeterminism(Program& p, const MappingOptions& mapping,
                      const std::vector<int>& grid,
                      const std::function<void(Interpreter&)>& seed,
                      const std::vector<std::string>& outputs) {
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = grid;
    passes.mapping = mapping;
    Compilation c = Compiler::compile(p, opts, passes);
    const SimSnapshot base = snapshotAt(c, seed, outputs, 1);
    for (const double err : base.errors) EXPECT_EQ(err, 0.0);
    for (const int t : {2, 4})
        expectIdentical(base, snapshotAt(c, seed, outputs, t), t);
}

TEST(SimDeterminism, Fig1AcrossThreadCounts) {
    Program p = programs::fig1(24);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 24; ++i) {
            o.setElement("B", {i}, static_cast<double>(i));
            o.setElement("C", {i}, 1.0);
            o.setElement("E", {i}, 2.0);
            o.setElement("F", {i}, 2.0);
        }
        for (std::int64_t i = 1; i <= 25; ++i) o.setElement("A", {i}, 0.5);
    };
    checkDeterminism(p, MappingOptions{}, {4}, seed, {"A", "D"});
}

TEST(SimDeterminism, Fig6AcrossThreadCounts) {
    Program p = programs::fig6(10, 10, 10);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t m = 1; m <= 5; ++m)
            for (std::int64_t i = 1; i <= 10; ++i)
                for (std::int64_t j = 1; j <= 10; ++j)
                    for (std::int64_t k = 1; k <= 10; ++k)
                        o.setElement("rsd", {m, i, j, k},
                                     0.01 * static_cast<double>(m + i) +
                                         0.001 * static_cast<double>(j * k));
    };
    checkDeterminism(p, MappingOptions{}, {4}, seed, {"rsd"});
}

TEST(SimDeterminism, TomcatvAcrossThreadCounts) {
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 10; ++i)
            for (std::int64_t j = 1; j <= 10; ++j) {
                o.setElement("x", {i, j},
                             static_cast<double>(i) +
                                 0.1 * static_cast<double>(j));
                o.setElement("y", {i, j},
                             static_cast<double>(j) -
                                 0.05 * static_cast<double>(i));
            }
    };
    {
        Program p = programs::tomcatv(10, 2);
        checkDeterminism(p, MappingOptions{}, {4}, seed, {"x", "y"});
    }
    {
        // Replication level: every statement executes on all processors,
        // the widest lockstep phases the simulator produces — this is
        // the configuration where the worker pool genuinely splits work.
        Program p = programs::tomcatv(10, 2);
        MappingOptions m;
        m.privatization = false;
        checkDeterminism(p, m, {4}, seed, {"x", "y"});
    }
}

}  // namespace
