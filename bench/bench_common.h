#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "obs/json.h"
#include "programs/programs.h"

namespace phpf::bench {

/// Opt-in machine-readable bench output. When the PHPF_BENCH_REPORT
/// environment variable names a file, every printRow() also appends one
/// JSON line (`{"bench": ..., "procs": ..., "<column>": sec, ...}`) to
/// it, keyed by the most recent printHeader(). Human-readable stdout is
/// unchanged either way.
class BenchReporter {
public:
    static BenchReporter& instance() {
        static BenchReporter r;
        return r;
    }

    void setHeader(const std::string& title,
                   const std::vector<std::string>& columns) {
        title_ = title;
        columns_ = columns;
    }

    void row(int procs, const std::vector<double>& secs) {
        if (!out_.is_open()) return;
        obs::Json j = obs::Json::object();
        j.set("bench", title_);
        j.set("procs", procs);
        for (size_t i = 0; i < secs.size(); ++i) {
            const std::string key =
                i < columns_.size() ? columns_[i]
                                    : "col" + std::to_string(i);
            j.set(key, secs[i]);
        }
        out_ << j.dump(-1) << "\n";
        out_.flush();  // rows survive a crashed/killed bench run
    }

private:
    BenchReporter() {
        // The report file stays open for the process lifetime: a bench
        // binary emits hundreds of rows, and reopening per row turned
        // the reporter into the bottleneck of short benches.
        const char* p = std::getenv("PHPF_BENCH_REPORT");
        if (p != nullptr) out_.open(p, std::ios::app);
    }

    std::ofstream out_;
    std::string title_;
    std::vector<std::string> columns_;
};

/// Format a predicted execution time like the paper's tables (seconds).
inline std::string fmtSec(double s) {
    char buf[64];
    if (s >= 86400.0)
        std::snprintf(buf, sizeof buf, "> 86400 (1 day)");
    else if (s >= 100.0)
        std::snprintf(buf, sizeof buf, "%.0f", s);
    else if (s >= 1.0)
        std::snprintf(buf, sizeof buf, "%.1f", s);
    else
        std::snprintf(buf, sizeof buf, "%.3f", s);
    return buf;
}

/// Compile `p` for the given grid/options/machine model and return the
/// predicted execution profile.
inline CostBreakdown predict(Program& p, std::vector<int> grid,
                             MappingOptions mapping,
                             CostModel costModel = {}) {
    TargetConfig target;
    target.gridExtents = std::move(grid);
    target.costModel = costModel;
    PassOptions passes;
    passes.mapping = mapping;
    Compilation c = Compiler::compile(p, target, passes);
    return c.predictCost();
}

/// One simulation of `c` the way a perfbench sim_kernels job runs it
/// (construct the simulator, seed the oracle, run), with fixed inputs:
/// every array element in [0.5, 1.5) from a splitmix64 stream (integer
/// arrays hold 1). Returns the processor statements executed.
inline std::int64_t simulateSeeded(const Compilation& c) {
    SpmdSimulator sim(c.lowering(), c.target().costModel.elemBytes);
    std::uint64_t state = 7;
    for (const Symbol& s : c.lowering().program().symbols) {
        if (!s.isArray()) continue;
        for (std::int64_t f = 0; f < s.elementCount(); ++f) {
            std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            z ^= z >> 31;
            sim.oracle().store().set(
                s.id, f,
                s.type == ScalarType::Int
                    ? 1.0
                    : 0.5 + static_cast<double>(z >> 11) * 0x1.0p-53);
        }
    }
    sim.run();
    return sim.statementsExecutedAllProcs();
}

inline void printHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
    BenchReporter::instance().setHeader(title, columns);
    std::printf("\n%s\n", title.c_str());
    std::printf("%-6s", "#P");
    for (const auto& c : columns) std::printf("  %-22s", c.c_str());
    std::printf("\n");
}

inline void printRow(int procs, const std::vector<double>& secs) {
    BenchReporter::instance().row(procs, secs);
    std::printf("%-6d", procs);
    for (double s : secs) std::printf("  %-22s", fmtSec(s).c_str());
    std::printf("\n");
}

}  // namespace phpf::bench
