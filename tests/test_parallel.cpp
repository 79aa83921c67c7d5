// The compile service's task pool and the interned message-event set
// (support/parallel.h, support/interned_events.h), plus one-thread
// oracle checks of simulator configurations no other suite runs.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "driver/compiler.h"
#include "programs/programs.h"
#include "support/interned_events.h"
#include "support/parallel.h"

using namespace phpf;

namespace {

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

// --- simulator against the sequential oracle ---------------------------

/// Compile on a 4-proc grid, simulate, and require every output to
/// match the sequential oracle exactly.
void expectMatchesOracle(Program& p, const MappingOptions& mapping,
                         const std::function<void(Interpreter&)>& seed,
                         const std::vector<std::string>& outputs) {
    TargetConfig opts;
    opts.gridExtents = {4};
    PassOptions passes;
    passes.mapping = mapping;
    const Compilation c = Compiler::compile(p, opts, passes);
    auto sim = c.simulate({.seed = seed});
    for (const std::string& name : outputs)
        EXPECT_EQ(sim->maxErrorVsOracle(name), 0.0) << name;
}

TEST(SimOracle, Fig6MatchesOracle) {
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
    expectMatchesOracle(p, MappingOptions{}, seed, {"rsd"});
}

TEST(SimOracle, TomcatvMatchesOracle) {
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
        expectMatchesOracle(p, MappingOptions{}, seed, {"x", "y"});
    }
    {
        // Replication level: every statement executes on all
        // processors, the widest phases the simulator produces.
        Program p = programs::tomcatv(10, 2);
        MappingOptions m;
        m.privatization = false;
        expectMatchesOracle(p, m, seed, {"x", "y"});
    }
}

}  // namespace
