#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "programs/programs.h"
#include "runtime/bytecode.h"
#include "runtime/vm.h"
#include "support/arena.h"
#include "support/fault.h"

namespace phpf {
namespace {

// =====================================================================
// Arena: the bytecode compiler's bump allocator.

TEST(Arena, BumpAllocatesAlignedStorage) {
    Arena a;
    double* d = a.make<double>(3.5);
    EXPECT_EQ(*d, 3.5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
    char* c = a.makeArray<char>(3);
    c[0] = 'x';
    std::int64_t* i = a.make<std::int64_t>(-7);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i) % alignof(std::int64_t),
              0u);
    EXPECT_EQ(*i, -7);
    EXPECT_EQ(*d, 3.5);  // earlier allocations stay intact
}

TEST(Arena, GrowsByChunksAndOversizedRequestsGetTheirOwn) {
    Arena a(64);  // tiny chunk to force growth
    for (int i = 0; i < 32; ++i) *a.make<std::int64_t>(i) = i;
    EXPECT_GT(a.chunkCount(), 1u);
    // One request larger than the chunk size.
    int* big = a.makeArray<int>(1000);
    big[0] = 1;
    big[999] = 2;
    EXPECT_EQ(big[0] + big[999], 3);
    EXPECT_GE(a.bytesAllocated(), 32 * sizeof(std::int64_t) +
                                      1000 * sizeof(int));
}

TEST(Arena, ResetKeepsFirstChunkAndReusesIt) {
    Arena a(256);
    a.make<double>(1.0);      // establish the first (256-byte) chunk
    a.makeArray<char>(1000);  // grow past it
    const size_t grown = a.chunkCount();
    EXPECT_GT(grown, 1u);
    a.reset();
    EXPECT_EQ(a.bytesAllocated(), 0u);
    EXPECT_EQ(a.chunkCount(), 1u);
    double* d = a.make<double>(1.25);
    EXPECT_EQ(*d, 1.25);
}

// =====================================================================
// compileExpr: every statement expression of the paper's kernels
// evaluates bit-identically to the tree-walking interpreter.

/// Scalars hold 4 (a safe mid-range subscript for every kernel's ±1/±2
/// stencils), array elements small deterministic integers — so every
/// subscript an expression evaluates lands in bounds.
void seedEverySymbol(Interpreter& interp, const Program& p) {
    Store& st = interp.store();
    for (size_t s = 0; s < p.symbols.size(); ++s) {
        const auto sym = static_cast<SymbolId>(s);
        const std::int64_t n = st.sizeOf(sym);
        if (n == 1) {
            st.set(sym, 0, 4.0);
            continue;
        }
        for (std::int64_t f = 0; f < n; ++f)
            st.set(sym, f,
                   1.0 + static_cast<double>(
                             (static_cast<std::int64_t>(s) * 131 + f * 17) %
                             7));
    }
}

void expectChunksMatchTreeEval(Program p) {
    p.finalize();
    Interpreter interp(p);
    seedEverySymbol(interp, p);
    int checked = 0;
    p.forEachStmt([&](const Stmt* s) {
        const Expr* e = s->kind == StmtKind::Assign  ? s->rhs
                        : s->kind == StmtKind::If    ? s->cond
                                                     : nullptr;
        if (e == nullptr) return;
        std::vector<bc::FetchSlot> slots;
        const bc::Chunk ch = bc::compileExpr(p, e, slots);
        ASSERT_FALSE(ch.empty());
        vm::validate(ch, static_cast<int>(slots.size()));
        std::vector<double> regs(static_cast<size_t>(ch.numRegs), 0.0);
        const double got =
            vm::runScalar(ch, regs.data(), [&](int slot) {
                const bc::FetchSlot& sl = slots[static_cast<size_t>(slot)];
                return interp.store().get(
                    sl.sym, sl.isArray ? interp.flatIndexOf(sl.ref) : 0);
            });
        EXPECT_EQ(got, interp.eval(e)) << "stmt " << s->id << " of "
                                       << p.name;
        ++checked;
    });
    EXPECT_GT(checked, 0) << p.name;
}

TEST(BytecodeCompile, ChunksMatchInterpreterOnEveryKernelExpression) {
    expectChunksMatchTreeEval(programs::fig1(24));
    expectChunksMatchTreeEval(programs::fig7(16));
    expectChunksMatchTreeEval(programs::fig6(10, 10, 10));
    expectChunksMatchTreeEval(programs::tomcatv(10, 2));
    expectChunksMatchTreeEval(programs::dgefa(12));
    expectChunksMatchTreeEval(programs::appsp(8, 8, 8, 1, /*oneD=*/true));
}

// =====================================================================
// IndexForm: affine strength reduction of subscripts.

TEST(IndexForm, AffineFormsMatchSubscriptTrees) {
    for (int which = 0; which < 3; ++which) {
        Program p = which == 0   ? programs::tomcatv(10, 2)
                    : which == 1 ? programs::dgefa(12)
                                 : programs::appsp(8, 8, 8, 1, true);
        p.finalize();
        Interpreter interp(p);
        seedEverySymbol(interp, p);
        // Bound twice: every scalar read from the store, and every
        // scalar held in an iteration vector.
        const std::vector<char> none(p.symbols.size(), 0);
        const std::vector<char> all(p.symbols.size(), 1);
        std::vector<std::int64_t> iv(p.symbols.size(), 0);
        for (const Symbol& sym : p.symbols)
            if (!sym.isArray())
                iv[static_cast<size_t>(sym.id)] =
                    static_cast<std::int64_t>(interp.store().get(sym.id));
        Arena arena;
        int affine = 0;
        int total = 0;
        p.forEachStmt([&](const Stmt* s) {
            if (s->kind != StmtKind::Assign ||
                s->lhs->kind != ExprKind::ArrayRef)
                return;
            const bc::IndexForm f = bc::flatIndexForm(p, s->lhs, arena);
            ASSERT_TRUE(f.present());
            ++total;
            if (f.affine) ++affine;
            for (const std::vector<char>* isIv : {&none, &all})
                EXPECT_EQ(bc::evalAddr(bc::bindAddr(f, 5, *isIv), iv.data(),
                                       interp),
                          5 + interp.flatIndexOf(s->lhs))
                    << "stmt " << s->id << " of " << p.name;
        });
        EXPECT_GT(total, 0) << p.name;
        // The kernels' subscripts are loop-var affine: strength
        // reduction must actually fire, not just fall back to trees.
        EXPECT_GT(affine, 0) << p.name;
    }
}

// =====================================================================
// Differential: the interp and bytecode engines are bit-identical in
// results AND every exposed metric, for every kernel, with identical
// profiler counts.

struct Snapshot {
    std::int64_t transfers = 0;
    std::int64_t events = 0;
    std::int64_t procStmts = 0;
    double imbalance = 0.0;
    std::vector<ProcSimMetrics> perProc;
    std::vector<std::int64_t> perOpEvents;
    std::vector<std::int64_t> perOpElems;
    std::vector<double> errors;
};

Snapshot snap(const Compilation& c, const SpmdSimulator& sim,
              const std::vector<std::string>& outputs) {
    Snapshot s;
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

void expectSnapshotsIdentical(const Snapshot& a, const Snapshot& b) {
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.procStmts, b.procStmts);
    EXPECT_EQ(a.imbalance, b.imbalance);  // bitwise, not approximate
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

/// Bitwise comparison of the two runs' final oracle stores — every
/// symbol, every element, not just the program outputs.
void expectOracleStoresIdentical(SpmdSimulator& a, SpmdSimulator& b) {
    const Store& sa = a.oracle().store();
    const Store& sb = b.oracle().store();
    ASSERT_EQ(sa.totalElems(), sb.totalElems());
    EXPECT_EQ(std::memcmp(sa.dataRaw(), sb.dataRaw(),
                          static_cast<size_t>(sa.totalElems()) *
                              sizeof(double)),
              0);
}

/// Bitwise comparison of the two runs' final per-processor state: the
/// validity of every symbol, element and processor, and the value
/// wherever the lane is valid.
void expectProcStatesIdentical(const Program& prog, const SpmdSimulator& a,
                               const SpmdSimulator& b) {
    ASSERT_EQ(a.procCount(), b.procCount());
    std::int64_t validLanes = 0;
    for (const Symbol& s : prog.symbols)
        for (std::int64_t f = 0; f < s.elementCount(); ++f)
            for (int p = 0; p < a.procCount(); ++p) {
                const bool valid = a.validOn(p, s.name, f);
                ASSERT_EQ(valid, b.validOn(p, s.name, f))
                    << s.name << " flat " << f << " on processor " << p;
                if (!valid) continue;
                ++validLanes;
                const double va = a.valueOn(p, s.name, f);
                const double vb = b.valueOn(p, s.name, f);
                ASSERT_EQ(std::memcmp(&va, &vb, sizeof va), 0)
                    << s.name << " flat " << f << " on processor " << p
                    << ": " << va << " vs " << vb;
            }
    EXPECT_GT(validLanes, 0);
}

struct Kernel {
    const char* name;
    std::function<Program()> build;
    std::vector<int> grid;
    std::function<void(Interpreter&)> seed;
    std::vector<std::string> outputs;
};

std::vector<Kernel> kernels() {
    std::vector<Kernel> ks;
    ks.push_back({"fig1", [] { return programs::fig1(24); }, {4},
                  [](Interpreter& o) {
                      for (std::int64_t i = 1; i <= 25; ++i) {
                          if (i <= 24) {
                              o.setElement("B", {i},
                                           static_cast<double>(i));
                              o.setElement("C", {i}, 1.0);
                              o.setElement("E", {i}, 2.0);
                              o.setElement("F", {i}, 2.0);
                          }
                          o.setElement("A", {i}, 0.5);
                      }
                  },
                  {"A", "D"}});
    ks.push_back({"fig6", [] { return programs::fig6(10, 10, 10); },
                  {2, 2},
                  [](Interpreter& o) {
                      for (std::int64_t m = 1; m <= 5; ++m)
                          for (std::int64_t i = 1; i <= 10; ++i)
                              for (std::int64_t j = 1; j <= 10; ++j)
                                  for (std::int64_t k = 1; k <= 10; ++k)
                                      o.setElement(
                                          "rsd", {m, i, j, k},
                                          0.01 * static_cast<double>(m + i) +
                                              0.001 *
                                                  static_cast<double>(j * k));
                  },
                  {"rsd"}});
    ks.push_back({"fig7", [] { return programs::fig7(16); }, {4},
                  [](Interpreter& o) {
                      for (std::int64_t i = 1; i <= 16; ++i) {
                          o.setElement("A", {i}, 0.25 * static_cast<double>(i));
                          o.setElement("B", {i},
                                       static_cast<double>(17 - i));
                          o.setElement("C", {i},
                                       static_cast<double>(i % 5) - 2.0);
                      }
                  },
                  {"A"}});
    ks.push_back({"tomcatv", [] { return programs::tomcatv(10, 2); }, {4},
                  [](Interpreter& o) {
                      for (std::int64_t i = 1; i <= 10; ++i)
                          for (std::int64_t j = 1; j <= 10; ++j) {
                              o.setElement("x", {i, j},
                                           static_cast<double>(i) +
                                               0.1 * static_cast<double>(j));
                              o.setElement("y", {i, j},
                                           static_cast<double>(j) -
                                               0.05 * static_cast<double>(i));
                          }
                  },
                  {"x", "y"}});
    ks.push_back({"dgefa", [] { return programs::dgefa(12); }, {4},
                  [](Interpreter& o) {
                      for (std::int64_t r = 1; r <= 12; ++r)
                          for (std::int64_t c = 1; c <= 12; ++c)
                              o.setElement(
                                  "A", {r, c},
                                  r == c ? 10.0 + static_cast<double>(r)
                                         : 1.0 / static_cast<double>(r + c));
                  },
                  {"A"}});
    ks.push_back({"appsp",
                  [] { return programs::appsp(6, 6, 6, 1, /*oneD=*/true); },
                  {4},
                  [](Interpreter& o) {
                      for (std::int64_t m = 1; m <= 5; ++m)
                          for (std::int64_t i = 1; i <= 6; ++i)
                              for (std::int64_t j = 1; j <= 6; ++j)
                                  for (std::int64_t k = 1; k <= 6; ++k)
                                      o.setElement(
                                          "rsd", {m, i, j, k},
                                          0.01 * static_cast<double>(m + i) +
                                              0.001 *
                                                  static_cast<double>(j * k));
                  },
                  {"rsd"}});
    return ks;
}

TEST(VmDifferential, EnginesBitIdenticalAcrossKernelsAndThreadCounts) {
    for (const Kernel& k : kernels()) {
        Program p = k.build();
        TargetConfig opts;
        opts.gridExtents = k.grid;
        Compilation c = Compiler::compile(p, opts);
        auto interp =
            c.simulate({.seed = k.seed, .engine = SimEngine::Interp});
        auto bytecode =
            c.simulate({.seed = k.seed, .engine = SimEngine::Bytecode});
        EXPECT_EQ(interp->engine(), SimEngine::Interp);
        EXPECT_EQ(bytecode->engine(), SimEngine::Bytecode);
        const Snapshot si = snap(c, *interp, k.outputs);
        const Snapshot sb = snap(c, *bytecode, k.outputs);
        SCOPED_TRACE(k.name);
        // Both engines track the sequential oracle exactly...
        for (const double err : si.errors) EXPECT_EQ(err, 0.0);
        // ...and match each other bit for bit, state and metrics.
        expectSnapshotsIdentical(si, sb);
        expectOracleStoresIdentical(*interp, *bytecode);
        expectProcStatesIdentical(c.lowering().program(), *interp, *bytecode);
    }
}

TEST(VmDifferential, ProfilerCountsIdenticalAcrossEngines) {
    for (const Kernel& k : kernels()) {
        Program p = k.build();
        TargetConfig opts;
        opts.gridExtents = k.grid;
        Compilation c = Compiler::compile(p, opts);
        auto interp = c.simulate({.seed = k.seed,
                                  .profile = true,
                                  .engine = SimEngine::Interp});
        auto bytecode = c.simulate({.seed = k.seed,
                                    .profile = true,
                                    .engine = SimEngine::Bytecode});
        const obs::StmtProfile* a = interp->profile();
        const obs::StmtProfile* b = bytecode->profile();
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        ASSERT_EQ(a->stmtCount(), b->stmtCount());
        for (int id = 0; id < a->stmtCount(); ++id) {
            SCOPED_TRACE(std::string(k.name) + " stmt " +
                         std::to_string(id));
            const auto& ra = a->row(id);
            const auto& rb = b->row(id);
            EXPECT_EQ(ra.instances, rb.instances);
            EXPECT_EQ(ra.procStmts, rb.procStmts);
            EXPECT_EQ(ra.elements, rb.elements);
            EXPECT_EQ(ra.events, rb.events);
            // Sample *counts* are deterministic (durations are not).
            EXPECT_EQ(ra.samples, rb.samples);
        }
    }
}

TEST(VmDifferential, ProfiledRunsIdenticalToUnprofiled) {
    // Arming the profiler adds a clock sample and nothing else: every
    // statement takes the same path, so state and metrics stay bit
    // for bit those of the plain run.
    for (const Kernel& k : kernels()) {
        Program p = k.build();
        TargetConfig opts;
        opts.gridExtents = k.grid;
        Compilation c = Compiler::compile(p, opts);
        auto plain = c.simulate({.seed = k.seed,
                                 .profile = false,
                                 .engine = SimEngine::Bytecode});
        auto profiled = c.simulate({.seed = k.seed,
                                    .profile = true,
                                    .engine = SimEngine::Bytecode});
        ASSERT_NE(profiled->profile(), nullptr);
        SCOPED_TRACE(k.name);
        expectSnapshotsIdentical(snap(c, *plain, k.outputs),
                                 snap(c, *profiled, k.outputs));
        expectOracleStoresIdentical(*plain, *profiled);
        expectProcStatesIdentical(c.lowering().program(), *plain, *profiled);
    }
}

// =====================================================================
// Relaxed reduction merge: exact for MAX/MIN always and for
// integer-valued SUM accumulators; count metrics never change.

TEST(RelaxedMerge, IntegerSumsStayExactWithIdenticalCountMetrics) {
    // fig5: s = sum over A(i,j); integer seeds keep every partial sum
    // integral, so the relaxed reassociation is exact.
    Program p = programs::fig5(12);
    TargetConfig opts;
    opts.gridExtents = {2, 2};
    Compilation c = Compiler::compile(p, opts);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 12; ++i)
            for (std::int64_t j = 1; j <= 12; ++j)
                o.setElement("A", {i, j},
                             static_cast<double>((i * 3 + j) % 7));
    };
    auto strict = c.simulate({.seed = seed,
                              .engine = SimEngine::Bytecode,
                              .relaxedMerge = false});
    auto relaxed = c.simulate({.seed = seed,
                               .engine = SimEngine::Bytecode,
                               .relaxedMerge = true});
    EXPECT_FALSE(strict->relaxedMerge());
    EXPECT_TRUE(relaxed->relaxedMerge());
    expectOracleStoresIdentical(*strict, *relaxed);
    EXPECT_EQ(strict->elementTransfers(), relaxed->elementTransfers());
    EXPECT_EQ(strict->messageEvents(), relaxed->messageEvents());
    EXPECT_EQ(strict->statementsExecutedAllProcs(),
              relaxed->statementsExecutedAllProcs());
}

TEST(RelaxedMerge, MaxLocReductionsStayExact) {
    // dgefa's pivot search is MAXLOC — exact under relaxed merging for
    // any values, tie-breaks included (lowest linear proc order matches
    // the oracle's sequential scan).
    const auto ks = kernels();
    const Kernel& k = *std::find_if(
        ks.begin(), ks.end(),
        [](const Kernel& c) { return std::string(c.name) == "dgefa"; });
    Program p = k.build();
    TargetConfig opts;
    opts.gridExtents = k.grid;
    Compilation c = Compiler::compile(p, opts);
    auto strict = c.simulate({.seed = k.seed,
                              .engine = SimEngine::Bytecode,
                              .relaxedMerge = false});
    auto relaxed = c.simulate({.seed = k.seed,
                               .engine = SimEngine::Bytecode,
                               .relaxedMerge = true});
    expectOracleStoresIdentical(*strict, *relaxed);
    EXPECT_EQ(strict->elementTransfers(), relaxed->elementTransfers());
    EXPECT_EQ(strict->messageEvents(), relaxed->messageEvents());
}

}  // namespace
// =====================================================================
// Out-of-range subscripts: a typed SimFault on either engine, raised
// before any executor set or store row is derived from the subscript.

TEST(SimSubscript, OutOfRangeSubscriptIsASimFaultOnEitherEngine) {
    // Fig. 2 reads H(i,p) with p = B(i); left at zero, B makes p = 0,
    // outside H's declared 1:16.
    Program p = programs::fig2(16);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    for (const SimEngine engine : {SimEngine::Interp, SimEngine::Bytecode}) {
        SCOPED_TRACE(simEngineName(engine));
        try {
            (void)c.simulate({.engine = engine});
            ADD_FAILURE() << "simulation ran past H(i,0)";
        } catch (const SimFault& e) {
            EXPECT_EQ(e.site(), faultsite::kSimSubscript);
            EXPECT_EQ(e.detail(),
                      "subscript 2 of H(i,p) is 0, outside its declared "
                      "bounds 1:16 (program fig2)");
        }
    }
}

TEST(SimSubscript, BothEnginesNameTheSameSubscript) {
    // Each program runs past a declared bound through a different
    // subscript shape: a scaled lhs subscript below its lower bound, a
    // scaled and negated rhs subscript past its upper bound (both bounds
    // need rounding when solved for i),
    // a subscript of two loop variables, an array read inside a
    // subscript, and an array read in a loop bound. The bytecode
    // engine's per-symbol range check must stop at the same instance
    // and name the same subscript as the interp engine's per-subscript
    // check.
    const char* sources[] = {
        R"(program oob1
  real a(10), b(10)
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
  do i = 0, 5
    a(2*i) = b(i+1) + 1.0
  end do
end)",
        R"(program oob2
  real a(10), b(10)
!hpf$ distribute (block) :: a
  do i = 1, 6
    a(i) = b(12-2*i)
  end do
end)",
        R"(program oob3
  real u(8,8), v(8,8)
!hpf$ distribute u(*,block)
!hpf$ align v(i,j) with u(i,j)
  do j = 1, 8
    do i = 1, 8
      u(i,j) = v(i,i+j-2)
    end do
  end do
end)",
        R"(program oob4
  real a(10), b(10)
  integer ix(10)
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
  do i = 1, 10
    ix(i) = i
  end do
  do i = 1, 11
    a(i) = b(ix(i))
  end do
end)",
        R"(program oob5
  real a(10)
  integer nb(3)
!hpf$ distribute (block) :: a
  nb(1) = 10
  do k = 1, 4
    do i = 1, nb(k)
      a(i) = 1.0
    end do
  end do
end)",
    };
    const char* expected[] = {
        "subscript 1 of a(2 * i) is 0, outside its declared bounds 1:10",
        "subscript 1 of b(12 - 2 * i) is 0, outside its declared bounds 1:10",
        "subscript 2 of v(i,i + j - 2) is 0, outside its declared bounds 1:8",
        "subscript 1 of ix(i) is 11, outside its declared bounds 1:10",
        "subscript 1 of nb(k) is 4, outside its declared bounds 1:3",
    };
    for (size_t k = 0; k < std::size(sources); ++k) {
        Program p = parseProgramOrDie(sources[k]);
        TargetConfig opts;
        opts.gridExtents = {2};
        Compilation c = Compiler::compile(p, opts);
        for (const SimEngine engine :
             {SimEngine::Interp, SimEngine::Bytecode}) {
            SCOPED_TRACE(std::string(sources[k]).substr(0, 12) + " " +
                         simEngineName(engine));
            try {
                (void)c.simulate({.engine = engine});
                ADD_FAILURE() << "simulation ran past the bound";
            } catch (const SimFault& e) {
                EXPECT_EQ(e.site(), faultsite::kSimSubscript);
                EXPECT_EQ(e.detail().rfind(expected[k], 0), 0u) << e.detail();
            }
        }
    }
}

TEST(SimSubscript, Fig2WithInRangeIndexArraysMatchesOracle) {
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 16; ++i) {
            o.setElement("B", {i}, static_cast<double>(17 - i));
            o.setElement("C", {i}, static_cast<double>((5 * i) % 16 + 1));
            for (std::int64_t j = 1; j <= 16; ++j) {
                o.setElement("H", {i, j}, static_cast<double>(i + 2 * j));
                o.setElement("G", {i, j}, static_cast<double>(3 * i - j));
            }
        }
    };
    for (const int procs : {4, 16}) {
        Program p = programs::fig2(16);
        TargetConfig opts;
        opts.gridExtents = {procs};
        Compilation c = Compiler::compile(p, opts);
        for (const SimEngine engine :
             {SimEngine::Interp, SimEngine::Bytecode}) {
            SCOPED_TRACE(std::to_string(procs) + " procs, " +
                         simEngineName(engine));
            auto sim = c.simulate({.seed = seed, .engine = engine});
            EXPECT_EQ(sim->maxErrorVsOracle("A"), 0.0);
        }
    }
}

}  // namespace phpf
