#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.h"
#include "service/compile_service.h"

namespace phpf::service {

/// One row of a batch jobs file: a program source (builtin kernel name,
/// .hpf file path, or inline source text) × grid × option variant.
struct BatchJob {
    std::string name;     ///< row label; synthesized when absent
    std::string program;  ///< builtin kernel (tomcatv, dgefa, appsp, ...)
    /// Builtin kernel parameters; 0 = the kernel's smoke-size default.
    std::int64_t n = 0, niter = 0, nx = 0, ny = 0, nz = 0;
    std::string file;    ///< path to a .hpf source file
    std::string source;  ///< inline mini-HPF source text
    TargetConfig target;
    PassOptions passes;
    /// Run the profiled embedded simulation (CompileRequest::profile):
    /// the job row gains a "calibration" object and the batch summary a
    /// per-job model-error MAPE.
    bool profile = false;
};

struct BatchSpec {
    std::vector<BatchJob> jobs;
};

/// Names of the builtin kernels a job's "program" field accepts.
[[nodiscard]] const std::vector<std::string>& builtinProgramNames();

/// Parse a jobs document: either {"jobs": [...]} or a bare array of job
/// objects (fields: program|file|source, n/niter/nx/ny/nz, grid,
/// options{...}, name, profile, repeat). Returns false with *err
/// set on malformed input, including a grid extent or elem_bytes below
/// 1.
bool parseBatchSpec(const obs::Json& doc, BatchSpec* out, std::string* err);

/// Read + parse a jobs file from disk.
bool loadBatchFile(const std::string& path, BatchSpec* out, std::string* err);

/// Turn one job into a service request (resolves builtin kernels to IR
/// builders and files to source text). Returns false with *err set for
/// unknown programs or unreadable files.
bool requestOfJob(const BatchJob& job, CompileRequest* out, std::string* err);

struct BatchOutcome {
    int jobs = 0;
    int ok = 0;
    int failed = 0;  ///< bad requests, parse errors, compile failures
    int cacheHits = 0;
    double wallSec = 0;
};

/// Run every job through the service concurrently (submit() on the
/// service's worker pool), writing one JSONL row per job in input
/// order, then a final summary row ({"summary": true, ...}) carrying
/// the service counts (CompileService::metricsJson).
BatchOutcome runBatch(CompileService& svc, const BatchSpec& spec,
                      std::ostream& out);

}  // namespace phpf::service
