#pragma once

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "analysis/const_prop.h"
#include "analysis/induction.h"
#include "driver/options.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "privatize/mapping_pass.h"
#include "runtime/spmd_sim.h"
#include "spmd/cost_eval.h"
#include "support/diagnostics.h"
#include "target/target.h"

namespace phpf {

/// How to run one functional SPMD simulation of a finished compilation.
/// All fields are optional; the defaults inherit the compile-time
/// configuration, so `c.simulate({})` behaves like the old no-argument
/// overload.
struct SimulationRequest {
    /// Element size for byte accounting: 0 inherits the compilation's
    /// CostModel::elemBytes.
    int elemBytes = 0;
    /// Seeds the simulator's sequential oracle before the run (input
    /// arrays default to zero otherwise).
    std::function<void(Interpreter&)> seed = {};
    /// Span destination for the sim-setup and sim-exec spans. When
    /// null, spans go to the compilation's own tracer — fine for a
    /// privately owned Compilation, but a Compilation shared read-only
    /// across threads (compile-service cache) needs a per-request tracer
    /// here to keep simulate() race-free.
    obs::Tracer* tracer = nullptr;
    /// Arm the per-statement profiler (SpmdSimulator::enableProfiling):
    /// the returned simulator carries a StmtProfile, buildRunReport()
    /// adds the schema-v3 "profile" and "calibration" sections, and the
    /// service caches both with the artifact.
    bool profile = false;
    /// Execution engine override: unset inherits the compilation's
    /// PassOptions::simEngine (default bytecode). Strict-mode results
    /// and metrics are bit-identical across engines.
    std::optional<SimEngine> engine = {};
    /// Relaxed reduction-merge override: unset inherits
    /// PassOptions::relaxedMerge (default off / strict).
    std::optional<bool> relaxedMerge = {};
};

/// Everything one compilation produced, immutable once the pipeline
/// finishes: analyses, mapping decisions, the lowered SPMD program, and
/// a captured copy of the run's diagnostics. All accessors are const —
/// a `shared_ptr<const Compilation>` can be shared read-only across
/// threads (this is what the compile-service cache hands out).
///
/// The Program is owned by the caller by default (and may have been
/// transformed by induction rewriting); adoptProgram() transfers
/// ownership into the Compilation for self-contained cached artifacts.
class Compilation {
public:
    Compilation() = default;
    Compilation(Compilation&&) = default;
    Compilation& operator=(Compilation&&) = default;

    [[nodiscard]] const Program& program() const { return *program_; }
    [[nodiscard]] Program& program() { return *program_; }
    [[nodiscard]] const Cfg& cfg() const { return *cfg_; }
    [[nodiscard]] const Dominators& dom() const { return *dom_; }
    [[nodiscard]] const SsaForm& ssa() const { return *ssa_; }
    [[nodiscard]] const ConstProp& constProp() const { return *constProp_; }
    [[nodiscard]] const DataMapping& dataMapping() const { return *dataMapping_; }
    [[nodiscard]] const MappingPass& mappingPass() const { return *mappingPass_; }
    [[nodiscard]] const SpmdLowering& lowering() const { return *lowering_; }
    [[nodiscard]] const TargetConfig& target() const { return target_; }
    [[nodiscard]] const PassOptions& passes() const { return passes_; }
    [[nodiscard]] int inductionRewrites() const { return inductionRewrites_; }
    /// Timeline of the run (per-pass spans; simulate() adds its own).
    [[nodiscard]] const std::shared_ptr<obs::Tracer>& tracer() const {
        return tracer_;
    }
    /// Diagnostics captured when the pipeline finished (parse warnings
    /// included when the session shared its engine with the front end).
    [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
        return diagnostics_;
    }

    /// Transfer ownership of the program into this compilation (the
    /// pointer must be the program the pipeline ran on). Cached
    /// artifacts use this to stay valid after the request scope dies.
    void adoptProgram(std::unique_ptr<Program> p);

    /// The backend this compilation was lowered for.
    [[nodiscard]] const Target& compileTarget() const {
        return targetFor(target_.targetKind);
    }
    /// Analytic performance prediction on the compiled target's machine.
    /// Priced on first use and memoized (see predictCostFor).
    [[nodiscard]] CostBreakdown predictCost() const {
        return predictCostFor(target_.targetKind);
    }
    /// Cross-target prediction: price THIS lowering under `kind`'s
    /// machine model. The lowering structure is target-independent, so
    /// this is what the run report's "which target wins" comparison
    /// evaluates — no second compilation needed. Each target is priced
    /// at most once per Compilation, race-free under sharing: every
    /// later call (and buildRunReport) reads the memoized breakdown.
    [[nodiscard]] CostBreakdown predictCostFor(TargetKind kind) const;
    /// Functional SPMD simulation (small problem sizes): returns the
    /// simulator after a full run. Seed inputs, override the engine
    /// or element size via the request's named fields.
    [[nodiscard]] std::unique_ptr<SpmdSimulator> simulate(
        const SimulationRequest& req = {}) const;
    [[nodiscard]] std::string report() const { return mappingPass_->report(); }

    /// Schema-versioned JSON run report: per-pass wall times, one
    /// DecisionRecord per variable with the modeled cost of every
    /// rejected mapping alternative, the analytic cost prediction, the
    /// collected diagnostics, and — when `sim` is given — per-processor
    /// and per-comm-op simulation metrics. See obs/ and README
    /// "Observability".
    [[nodiscard]] obs::Json buildRunReport(
        const SpmdSimulator* sim = nullptr) const;
    /// Write buildRunReport() to `path`; returns false on I/O failure.
    bool writeReport(const std::string& path,
                     const SpmdSimulator* sim = nullptr) const;
    /// Write the tracer's spans as a Chrome trace_event file (openable
    /// in chrome://tracing or Perfetto); returns false on I/O failure.
    bool writeChromeTrace(const std::string& path) const;

private:
    friend class CompilePipeline;

    Program* program_ = nullptr;
    std::unique_ptr<Program> ownedProgram_;
    std::unique_ptr<Cfg> cfg_;
    std::unique_ptr<Dominators> dom_;
    std::unique_ptr<SsaForm> ssa_;
    std::unique_ptr<ConstProp> constProp_;
    std::unique_ptr<DataMapping> dataMapping_;
    std::unique_ptr<MappingPass> mappingPass_;
    std::unique_ptr<SpmdLowering> lowering_;
    TargetConfig target_;
    PassOptions passes_;
    int inductionRewrites_ = 0;
    std::shared_ptr<obs::Tracer> tracer_;
    std::vector<Diagnostic> diagnostics_;

    /// One lazily filled pricing slot per TargetKind. Behind a pointer
    /// because a once_flag cannot move, and Compilation must.
    struct PricingMemo {
        static constexpr size_t kKinds =
            static_cast<size_t>(TargetKind::SharedMemory) + 1;
        std::array<std::once_flag, kKinds> once;
        std::array<CostBreakdown, kKinds> cost;
    };
    std::unique_ptr<PricingMemo> pricing_ = std::make_unique<PricingMemo>();
};

/// The pipeline stages, in execution order. InductionRewrite includes
/// the dataflow rebuild it may trigger.
enum class CompileStage : std::uint8_t {
    Finalize,
    Cfg,
    Dominators,
    Ssa,
    ConstProp,
    InductionRewrite,
    DataMapping,
    MappingPass,
    SpmdLowering,
    Done,
};

/// Stable lower-case stage label ("mapping-pass"); also the span name
/// the stage records, so per-stage latencies can be keyed off either.
[[nodiscard]] const char* stageName(CompileStage s);

/// One compilation in flight, advanced stage by stage.
///
///     CompilePipeline pipe(p, target, passes, session);
///     pipe.run();
///     Compilation c = std::move(pipe).take();
///
/// step() exposes the stage granularity directly (a caller can time
/// each stage, as perfbench does; tests can stop at a chosen stage).
class CompilePipeline {
public:
    CompilePipeline(Program& p, TargetConfig target, PassOptions passes,
                    CompileSession session = {});
    ~CompilePipeline();

    CompilePipeline(const CompilePipeline&) = delete;
    CompilePipeline& operator=(const CompilePipeline&) = delete;

    /// The stage the next step() would run; Done when finished.
    [[nodiscard]] CompileStage next() const { return next_; }
    [[nodiscard]] bool done() const { return next_ == CompileStage::Done; }

    /// Run the next stage. Returns false (and runs nothing) when the
    /// pipeline is done.
    bool step();
    /// Run every remaining stage.
    void run();

    /// Take the finished Compilation; valid only when done().
    [[nodiscard]] Compilation take() &&;

private:
    Program& prog_;
    CompileSession session_;
    Compilation c_;
    CompileStage next_ = CompileStage::Finalize;
    int compileSpan_ = -1;  ///< the whole-run "compile" span, open until Done
};

/// The phpf-style compiler driver: program analysis (CFG, SSA, constant
/// propagation, induction variable recognition and closed-form
/// rewriting), mapping resolution, the privatization mapping pass of
/// this paper, and SPMD lowering with placed communication.
class Compiler {
public:
    [[nodiscard]] static Compilation compile(Program& p,
                                             const TargetConfig& target,
                                             const PassOptions& passes = {},
                                             CompileSession session = {});
};

}  // namespace phpf
