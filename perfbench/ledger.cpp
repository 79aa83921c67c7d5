#include "ledger.h"

#include <cstring>

namespace perfbench {

namespace {

constexpr const char* kLayerNames[kLayerCount] = {
    "frontend.parse",       "ir.finalize",          "analysis.cfg",
    "analysis.dominators",  "analysis.ssa",         "analysis.const_prop",
    "analysis.induction",   "mapping.data_mapping", "privatize.mapping_pass",
    "spmd.lowering",        "target.emit",          "spmd.cost",
    "driver.report",        "runtime.sim_setup",    "runtime.sim_run",
    "service.hit",          "service.miss",
};

struct StageLayer {
    const char* stage;
    Layer layer;
};
constexpr StageLayer kStages[] = {
    {"finalize", kFinalize},       {"cfg", kCfg},
    {"dominators", kDominators},   {"ssa", kSsa},
    {"const-prop", kConstProp},    {"induction-rewrite", kInduction},
    {"data-mapping", kDataMapping}, {"mapping-pass", kMappingPass},
    {"spmd-lowering", kLowering},
};

}  // namespace

const char* layerName(int layer) { return kLayerNames[layer]; }

int layerOfStage(const char* stageName) {
    for (const StageLayer& s : kStages)
        if (std::strcmp(s.stage, stageName) == 0) return s.layer;
    return -1;
}

std::int64_t LedgerRow::unattributedNs() const {
    std::int64_t covered = 0;
    for (std::int64_t ns : layerNs) covered += ns;
    return wallNs - covered;
}

std::vector<LedgerRow> buildLedger(const std::vector<Span>& spans,
                                   const std::vector<std::string>& labels) {
    std::vector<LedgerRow> rows(labels.size() + 1);
    for (std::size_t i = 0; i < labels.size(); ++i) rows[i].label = labels[i];
    LedgerRow& total = rows.back();
    total.label = "all jobs";
    for (const Span& s : spans) {
        const bool isJob = s.parent < 0;
        const Span& job = isJob ? s : spans[static_cast<std::size_t>(s.parent)];
        LedgerRow& row = rows[static_cast<std::size_t>(job.row)];
        const std::int64_t dur = s.endNs - s.startNs;
        for (LedgerRow* r : {&row, &total}) {
            if (isJob) {
                ++r->jobs;
                r->wallNs += dur;
            } else {
                r->layerNs[s.layer] += dur;
            }
        }
    }
    return rows;
}

void printLedger(std::FILE* out, const std::vector<LedgerRow>& rows) {
    bool used[kLayerCount] = {};
    for (const LedgerRow& r : rows)
        for (int l = 0; l < kLayerCount; ++l) used[l] = used[l] || r.layerNs[l] > 0;
    std::fprintf(out, "ledger (traced jobs; us per job, self time)\n");
    std::fprintf(out, "%-28s %6s %10s", "kernel", "jobs", "job_us");
    for (int l = 0; l < kLayerCount; ++l)
        if (used[l]) std::fprintf(out, " %*s", 12, std::strchr(kLayerNames[l], '.') + 1);
    std::fprintf(out, " %12s %8s\n", "unattributed", "unattr%");
    for (const LedgerRow& r : rows) {
        if (r.jobs == 0) continue;
        const double n = static_cast<double>(r.jobs);
        std::fprintf(out, "%-28s %6lld %10.1f", r.label.c_str(),
                     static_cast<long long>(r.jobs),
                     static_cast<double>(r.wallNs) / n / 1e3);
        for (int l = 0; l < kLayerCount; ++l)
            if (used[l])
                std::fprintf(out, " %12.1f", static_cast<double>(r.layerNs[l]) / n / 1e3);
        std::fprintf(out, " %12.1f %7.2f%%\n",
                     static_cast<double>(r.unattributedNs()) / n / 1e3,
                     100.0 * static_cast<double>(r.unattributedNs()) /
                         static_cast<double>(r.wallNs));
    }
}

bool writeTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<std::string>& labels) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    std::fprintf(f, "{\"traceEvents\":[\n"
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                    "\"args\":{\"name\":\"perfbench\"}}");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const bool isJob = s.parent < 0;
        const char* name = isJob ? labels[static_cast<std::size_t>(s.row)].c_str()
                                 : kLayerNames[s.layer];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%lld,"
                     "\"span_id\":%zu,\"parent_id\":%d}}",
                     name, isJob ? "job" : "layer",
                     static_cast<double>(s.startNs - t0) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     static_cast<long long>(s.job), i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
