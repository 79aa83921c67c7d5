#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "driver/compiler.h"
#include "service/artifact_cache.h"
#include "service/error_code.h"
#include "support/parallel.h"

namespace phpf::service {

/// One compile job: a program (mini-HPF source text OR an IR builder
/// producing a fresh Program per call) plus the canonicalized compile
/// configuration. Tracer/diagnostics side channels deliberately have no
/// place here — the service owns per-job sessions, which is what makes
/// requests safe to fingerprint and cache.
struct CompileRequest {
    /// Label for logs and batch rows; not part of the cache key.
    std::string name;
    /// Mini-HPF source text. Mutually exclusive with `build` (source
    /// wins when both are set).
    std::string source;
    /// IR builder invoked once per cache miss (and once per request for
    /// fingerprinting); must return an equivalent fresh Program each
    /// call — compilation mutates its input.
    std::function<Program()> build;
    TargetConfig target;
    PassOptions passes;
    /// Run the embedded profiled simulation on a cache miss and cache
    /// the per-statement profile + model-error calibration with the
    /// artifact — warm hits replay the identical calibration without
    /// re-simulating. Part of the cache key (profiled and unprofiled
    /// artifacts are distinct entries).
    bool profile = false;
};

enum class CompileStatus : std::uint8_t {
    Ok,
    ParseError,  ///< front end rejected the source (not cached)
    Error,       ///< builder/pipeline/simulation failure (not cached)
};
[[nodiscard]] const char* statusName(CompileStatus s);

/// The immutable product of one successful compilation, shared
/// read-only between the cache and any number of concurrent readers.
/// Owns its Program, so it stays valid after the request that produced
/// it is gone.
struct CompileArtifact {
    std::string key;          ///< content-addressed request key
    std::string programName;
    std::shared_ptr<const Compilation> compilation;
    std::string spmdText;         ///< annotated SPMD pseudo-code
    std::string decisionReport;   ///< human-readable mapping decisions
    CostBreakdown cost;           ///< analytic prediction
    /// buildRunReport(); includes simulation/profile/calibration
    /// sections when the request asked for a profile.
    obs::Json runReport;
    bool profiled = false;  ///< the sections below are populated
    obs::Json profile;      ///< per-statement profile (schema v3)
    obs::Json calibration;  ///< model-error calibration (schema v3)
};

struct CompileResult {
    CompileStatus status = CompileStatus::Error;
    /// Machine-readable failure class; None iff status is Ok. Callers
    /// and tests branch on this, never on `error` text.
    ErrorCode code = ErrorCode::Internal;
    std::shared_ptr<const CompileArtifact> artifact;  ///< null unless Ok
    bool cacheHit = false;
    std::string key;      ///< empty for parse errors
    std::string error;    ///< message for non-Ok statuses
    double parseUs = 0;   ///< parse/build + fingerprint time
    double compileUs = 0; ///< pipeline + artifact assembly (0 on a hit)
    double totalUs = 0;   ///< submission to completion, queue wait included
};

struct ServiceConfig {
    /// Worker threads of the async submit() pool. 0 = auto (hardware
    /// concurrency). Clamped to 8 either way: compiles are memory-bound
    /// well before that.
    int workers = 0;
    /// Artifact-cache entries.
    std::size_t cacheCapacity = 256;
};

struct ServiceStats {
    std::int64_t requests = 0;
    std::int64_t compiles = 0;  ///< successful compiles (Ok, not a hit)
    std::int64_t parseErrors = 0;
    std::int64_t errors = 0;
    CacheStats cache;
    int workers = 0;
};

/// Compile service: fingerprints every request (stable program hash +
/// normalized options key), serves repeats from a bounded LRU of
/// immutable artifacts, and runs misses on the calling thread
/// (compile()) or on its worker pool (submit()). Two identical requests
/// that miss at the same time both compile; the results are
/// bit-identical and the cache keeps one entry.
class CompileService {
public:
    explicit CompileService(ServiceConfig cfg = {});
    ~CompileService();  ///< drains the worker pool first

    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /// Synchronous compile on the calling thread (a cache hit returns
    /// without compiling anything).
    [[nodiscard]] CompileResult compile(const CompileRequest& req);

    /// Asynchronous compile on the worker pool; the result's totalUs
    /// counts the queue wait.
    [[nodiscard]] std::shared_future<CompileResult> submit(CompileRequest req);

    [[nodiscard]] ServiceStats stats() const;
    /// Service snapshot for the batch summary row: the request counts
    /// plus cache and queue state. Drains the worker pool first, so the
    /// queue block reads a quiescent pool (never call it from inside a
    /// submitted job).
    [[nodiscard]] obs::Json metricsJson() const;

private:
    using Clock = std::chrono::steady_clock;

    [[nodiscard]] CompileResult compileAt(const CompileRequest& req,
                                          Clock::time_point submitted);
    /// Execute a cache miss: run the pipeline, assemble the artifact and
    /// publish it.
    [[nodiscard]] CompileResult runJob(const CompileRequest& req,
                                       const std::string& key,
                                       std::unique_ptr<Program> prog,
                                       DiagEngine& diags);
    void recordOutcome(const CompileResult& r);

    ArtifactCache cache_;
    std::unique_ptr<TaskPool> pool_;

    std::atomic<std::int64_t> requests_{0};
    std::atomic<std::int64_t> compiles_{0};
    std::atomic<std::int64_t> parseErrors_{0};
    std::atomic<std::int64_t> errors_{0};
};

}  // namespace phpf::service
