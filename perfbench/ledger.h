#pragma once

// Spans around every layer call a job makes, recorded from the
// benchmark's side of the library's public API. Untraced runs take only
// the two clock reads that bound each job; traced runs keep one span per
// layer call in memory, parented under its job span and sharing the
// job's id, and write them out when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The layers, named after the src/ modules that implement them.
enum Layer : int {
    kParse,         ///< frontend: Parser::parse
    kFinalize,      ///< ir: CompileStage::Finalize
    kCfg,           ///< analysis: CompileStage::Cfg
    kDominators,    ///< analysis: CompileStage::Dominators
    kSsa,           ///< analysis: CompileStage::Ssa
    kConstProp,     ///< analysis: CompileStage::ConstProp
    kInduction,     ///< analysis: CompileStage::InductionRewrite
    kDataMapping,   ///< mapping: CompileStage::DataMapping
    kMappingPass,   ///< privatize: CompileStage::MappingPass
    kLowering,      ///< spmd: CompileStage::SpmdLowering
    kEmit,          ///< target: Target::emitText
    kCost,          ///< spmd: Compilation::predictCost
    kReport,        ///< driver: buildRunReport + dump
    kSimSetup,      ///< runtime: SpmdSimulator construction + inputs
    kSimRun,        ///< runtime: SpmdSimulator::run
    kServiceHit,    ///< service: CompileService::compile, cache hit
    kServiceMiss,   ///< service: CompileService::compile, cache miss
    kLayerCount,
};

/// Metric stem of a layer ("frontend.parse").
[[nodiscard]] const char* layerName(int layer);
/// The layer a pipeline stage label (phpf::stageName) belongs to, or -1
/// for a stage this benchmark does not know (its time then shows up as
/// unattributed).
[[nodiscard]] int layerOfStage(const char* stageName);

inline std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    std::int64_t job = 0;      ///< id shared by a job span and its layer spans
    std::int32_t parent = -1;  ///< index of the job span; -1 for a job span
    std::int16_t layer = -1;   ///< Layer; -1 for a job span
    std::int16_t row = -1;     ///< ledger row of a job span
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/// Times one job at a time. With tracing off, beginJob/endJob are the
/// only clock reads; with tracing on, layer() also records a span.
class Recorder {
public:
    explicit Recorder(bool tracing) : tracing_(tracing) {}

    void setTracing(bool on) { tracing_ = on; }
    [[nodiscard]] bool tracing() const { return tracing_; }

    void beginJob(int row) {
        ++jobId_;
        if (tracing_) {
            jobSpan_ = static_cast<std::int32_t>(spans_.size());
            spans_.push_back(Span{jobId_, -1, -1, static_cast<std::int16_t>(row), 0, 0});
        }
        jobStart_ = nowNs();
        if (tracing_) spans_[static_cast<std::size_t>(jobSpan_)].startNs = jobStart_;
    }

    /// Run `f` as one call into `layer`.
    template <class F>
    decltype(auto) layer(int layer, F&& f) {
        if (!tracing_ || layer < 0) return f();
        struct Close {
            Recorder* r;
            std::size_t at;
            ~Close() { r->spans_[at].endNs = nowNs(); }
        } close{this, spans_.size()};
        spans_.push_back(Span{jobId_, jobSpan_, static_cast<std::int16_t>(layer), -1, nowNs(), 0});
        return f();
    }

    /// Re-label the most recent layer span (a service call is a hit or a
    /// miss only once it returns).
    void relabelLast(int layer) {
        if (tracing_) spans_.back().layer = static_cast<std::int16_t>(layer);
    }

    /// Close the job; returns its wall time in nanoseconds.
    std::int64_t endJob() {
        const std::int64_t end = nowNs();
        if (tracing_) spans_[static_cast<std::size_t>(jobSpan_)].endNs = end;
        return end - jobStart_;
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    bool tracing_;
    std::int64_t jobId_ = 0;
    std::int32_t jobSpan_ = -1;
    std::int64_t jobStart_ = 0;
    std::vector<Span> spans_;
};

/// Self time per layer, summed over the traced jobs of one ledger row.
struct LedgerRow {
    std::string label;
    std::int64_t jobs = 0;
    std::int64_t wallNs = 0;
    std::int64_t layerNs[kLayerCount] = {};
    /// Job time covered by no layer span.
    [[nodiscard]] std::int64_t unattributedNs() const;
};

/// Fold traced spans into one row per ledger label (`labels` indexed by
/// Span::row) plus a total row at the back.
[[nodiscard]] std::vector<LedgerRow> buildLedger(
    const std::vector<Span>& spans, const std::vector<std::string>& labels);

/// One line per row: µs per job for every layer the row used, and the
/// unattributed share. Layers plus unattributed equal the job time.
void printLedger(std::FILE* out, const std::vector<LedgerRow>& rows);

/// Chrome trace_event JSON of every span (ts/dur in µs; layer spans carry
/// args.job and args.parent_id = their job span's args.span_id).
bool writeTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<std::string>& labels);

}  // namespace perfbench
