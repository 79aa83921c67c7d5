// The simulator's bytecode plan: element-address forms over the
// iteration vector, memoized one-owner sets and strips must leave every
// bank lane, the oracle and every counter bit for bit as they were.
// tests/pinned_sim.h pins them on the perfbench sim_kernels cells; the
// parsed edge cases compare the two engines and the oracle.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "pinned_sim.h"
#include "programs/programs.h"

namespace phpf {
namespace {

// =====================================================================
// Pins: the ten sim_kernels cells (perfbench/jobs.cpp) at simulation
// size on 16 procs.

struct PinCell {
    std::string label;
    std::function<Program()> build;
    TargetConfig target;
    PassOptions passes;
};

std::vector<PinCell> simKernelCells() {
    std::vector<PinCell> cells;
    const char* tomcatv[] = {"replication", "producer", "selected"};
    for (int v = 0; v < 3; ++v) {
        PinCell c{std::string("tomcatv ") + tomcatv[v],
                  [] { return programs::tomcatv(65, 3); }, {}, {}};
        c.target.gridExtents = {16};
        if (v == 0) c.passes.mapping.privatization = false;
        if (v == 1)
            c.passes.mapping.alignPolicy =
                MappingOptions::AlignPolicy::ProducerOnly;
        cells.push_back(std::move(c));
    }
    for (const bool align : {false, true}) {
        PinCell c{align ? "dgefa aligned" : "dgefa replicated",
                  [] { return programs::dgefa(64); }, {}, {}};
        c.target.gridExtents = {16};
        c.passes.mapping.reductionAlignment = align;
        cells.push_back(std::move(c));
    }
    for (int v = 0; v < 5; ++v) {
        const bool oneD = v < 2;
        PinCell c{"appsp v" + std::to_string(v),
                  [oneD] { return programs::appsp(16, 16, 16, 2, oneD); },
                  {},
                  {}};
        c.target.gridExtents = oneD ? std::vector<int>{16} : std::vector<int>{4, 4};
        c.target.costModel.combineMessages = v == 4;
        c.passes.mapping.arrayPrivatization = v == 1 || v >= 3;
        c.passes.mapping.partialPrivatization = v >= 3;
        cells.push_back(std::move(c));
    }
    return cells;
}

/// Fixed inputs: every array element in [0.5, 1.5) from a splitmix64
/// stream (integer arrays hold 1, inside any declared bound).
void seedArrays(Interpreter& o, const Program& p) {
    std::uint64_t state = 7;
    for (const Symbol& s : p.symbols) {
        if (!s.isArray()) continue;
        for (std::int64_t f = 0; f < s.elementCount(); ++f) {
            std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            z ^= z >> 31;
            o.store().set(s.id, f,
                          s.type == ScalarType::Int
                              ? 1.0
                              : 0.5 + static_cast<double>(z >> 11) * 0x1.0p-53);
        }
    }
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
    return h;
}

/// What one run pins: its counters, and one FNV-1a hash over every bank
/// lane (validity, plus the value bits where valid) and the oracle
/// store.
PinnedSim pinOf(const std::string& label, const Compilation& c,
                SpmdSimulator& sim) {
    PinnedSim pin{label.c_str(), sim.messageEvents(), sim.elementTransfers(),
                  sim.statementsExecutedAllProcs(), {}, {}, {}, {}, {}, {}, 0};
    for (const CommOp& op : c.lowering().commOps()) {
        pin.opEvents.push_back(sim.eventsOfOp(op.id));
        pin.opElems.push_back(sim.elementsOfOp(op.id));
    }
    for (const ProcSimMetrics& m : sim.procMetrics()) {
        pin.executed.push_back(m.stmtsExecuted);
        pin.skipped.push_back(m.stmtsSkipped);
        pin.recv.push_back(m.recvElements);
        pin.sent.push_back(m.sentElements);
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Symbol& s : c.lowering().program().symbols)
        for (std::int64_t f = 0; f < s.elementCount(); ++f)
            for (int p = 0; p < sim.procCount(); ++p) {
                const char valid = sim.validOn(p, s.name, f) ? 1 : 0;
                h = fnv1a(h, &valid, 1);
                if (valid == 0) continue;
                const double v = sim.valueOn(p, s.name, f);
                h = fnv1a(h, &v, sizeof v);
            }
    const Store& st = sim.oracle().store();
    pin.stateHash = fnv1a(h, st.dataRaw(),
                          static_cast<size_t>(st.totalElems()) * sizeof(double));
    return pin;
}

/// One pinned_sim.h row: a mismatch prints the re-recorded row.
std::string pinText(const PinnedSim& pin) {
    std::ostringstream os;
    const auto list = [&](const std::vector<std::int64_t>& v,
                          const char* sep) {
        os << "{";
        for (size_t i = 0; i < v.size(); ++i) os << (i == 0 ? "" : ", ") << v[i];
        os << "}," << sep;
    };
    os << "{\"" << pin.cell << "\", " << pin.messageEvents << ", "
       << pin.transfers << ", " << pin.procStmts << ",\n     ";
    list(pin.opEvents, " ");
    list(pin.opElems, "\n     ");
    list(pin.executed, "\n     ");
    list(pin.skipped, "\n     ");
    list(pin.recv, "\n     ");
    list(pin.sent, " ");
    os << "0x" << std::hex << pin.stateHash << "ull},";
    return os.str();
}

TEST(SimPins, SimKernelCellsPinnedOnBothEnginesProfiledOrNot) {
    const std::vector<PinCell> cells = simKernelCells();
    ASSERT_EQ(kPinnedSim.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const PinCell& cell = cells[i];
        Program p = cell.build();
        const Compilation c = Compiler::compile(p, cell.target, cell.passes);
        const Program& lowered = c.lowering().program();
        for (const SimEngine engine : {SimEngine::Bytecode, SimEngine::Interp})
            for (const bool profile : {false, true}) {
                SCOPED_TRACE(cell.label + " " + simEngineName(engine) +
                             (profile ? " profiled" : ""));
                auto sim = c.simulate(
                    {.seed = [&](Interpreter& o) { seedArrays(o, lowered); },
                     .profile = profile,
                     .engine = engine});
                EXPECT_EQ(pinText(pinOf(cell.label, c, *sim)),
                          pinText(kPinnedSim[i]));
            }
    }
}


// =====================================================================
// Strips: parsed edge cases, each run on both engines from the same
// inputs. The runs must agree bit for bit (counters, every bank lane,
// the oracle) and track the oracle on every array.

/// What the bytecode run planned and moved.
struct StripRun {
    int strips = 0;
    std::int64_t transfers = 0;
};

StripRun expectEnginesAgree(const char* source, std::vector<int> grid) {
    Program p = parseProgramOrDie(source);
    TargetConfig target;
    target.gridExtents = std::move(grid);
    const Compilation c = Compiler::compile(p, target);
    const Program& lowered = c.lowering().program();
    const auto seed = [&](Interpreter& o) { seedArrays(o, lowered); };
    auto bytecode = c.simulate({.seed = seed, .engine = SimEngine::Bytecode});
    auto interp = c.simulate({.seed = seed, .engine = SimEngine::Interp});
    EXPECT_EQ(pinText(pinOf(p.name, c, *bytecode)),
              pinText(pinOf(p.name, c, *interp)));
    for (const Symbol& s : lowered.symbols) {
        if (s.isArray()) {
            EXPECT_EQ(bytecode->maxErrorVsOracle(s.name), 0.0) << s.name;
        }
    }
    return {bytecode->stripLoops(), bytecode->elementTransfers()};
}

TEST(SimStrips, ZeroTripAndNegativeStepStrips) {
    EXPECT_EQ(expectEnginesAgree(R"(program strips1
  real a(16), b(16)
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
  do i = 16, 1, -1
    a(i) = b(i) + 1.0
  end do
  do i = 5, 4
    a(i) = 0.0
  end do
  do i = 16, 2, -3
    b(i) = a(i) * 2.0
  end do
  do i = 1, 2, -1
    b(i) = 0.0
  end do
  k = i
  do j = 1, 16
    a(j) = a(j) + k
  end do
end)",
                                 {4})
                  .strips,
              5);
}

TEST(SimStrips, DoVariablesReadAsValues) {
    // i and j are read as values inside the strip, and i after it; b(i)
    // reads the a(i) written earlier in the same iteration.
    EXPECT_EQ(expectEnginesAgree(R"(program strips2
  real a(16), b(16)
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
  do j = 1, 2
    do i = 1, 16
      a(i) = i * 0.5 + j
      b(i) = a(i) - i
    end do
  end do
  k = i + j
  do i = 1, 16
    b(i) = b(i) + k
  end do
end)",
                                 {4})
                  .strips,
              2);
}

TEST(SimStrips, MovingOwnersAndMissesInsideAStrip) {
    // The executor of a(i) and c(i) moves along i; b(i+1), b(i-1) and
    // a(i-1) miss at every block boundary, a(i-1) on a value the
    // previous iteration wrote, a(i) on the one this iteration wrote.
    const StripRun oneD = expectEnginesAgree(R"(program strips3
  real a(16), b(16), c(16)
!hpf$ align (i) with a(i) :: b, c
!hpf$ distribute (block) :: a
  do i = 2, 15
    a(i) = b(i+1) + b(i-1)
    c(i) = a(i-1) + a(i)
  end do
end)",
                                             {4});
    EXPECT_EQ(oneD.strips, 1);
    EXPECT_GT(oneD.transfers, 0);
    const StripRun twoD = expectEnginesAgree(R"(program strips3c
  real a(16,16), b(16,16)
!hpf$ align (i,j) with a(i,j) :: b
!hpf$ distribute (cyclic,block) :: a
  do j = 2, 15
    do i = 2, 15
      a(i,j) = b(i+1,j) + b(i,j-1)
    end do
  end do
end)",
                                             {2, 2});
    EXPECT_EQ(twoD.strips, 1);
    EXPECT_GT(twoD.transfers, 0);
}

TEST(SimStrips, NonDoScalarInASubscriptDoesNotStrip) {
    EXPECT_EQ(expectEnginesAgree(R"(program strips4
  real a(16), b(16)
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
  do k = 1, 2
    m = k + 1
    do i = 1, 13
      a(i + m) = b(i) + 1.0
    end do
  end do
end)",
                                 {4})
                  .strips,
              0);
}

}  // namespace
}  // namespace phpf
