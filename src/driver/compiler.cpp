#include "driver/compiler.h"

namespace phpf {

void Compilation::adoptProgram(std::unique_ptr<Program> p) {
    PHPF_ASSERT(p.get() == program_,
                "adoptProgram: not the program this compilation ran on");
    ownedProgram_ = std::move(p);
}

CostBreakdown Compilation::predictCostFor(TargetKind kind) const {
    const auto k = static_cast<size_t>(kind);
    std::call_once(pricing_->once[k], [&] {
        pricing_->cost[k] = targetFor(kind).predictCost(*lowering_, target_);
    });
    return pricing_->cost[k];
}

std::unique_ptr<SpmdSimulator> Compilation::simulate(
    const SimulationRequest& req) const {
    obs::Tracer* tr = req.tracer != nullptr ? req.tracer : tracer_.get();
    obs::ScopedSpan span(tr, "simulate", "sim");
    // Both child spans are captured on the tracer's own clock:
    // reconstructing a start from wallSec once drifted (and could go
    // negative) under clock rounding.
    const std::int64_t setupNs = tr != nullptr ? tr->nowNs() : 0;
    const int elemBytes =
        req.elemBytes > 0 ? req.elemBytes : target_.costModel.elemBytes;
    const SimEngine engine = req.engine.value_or(passes_.simEngine);
    const bool relaxed = req.relaxedMerge.value_or(passes_.relaxedMerge);
    auto sim = std::make_unique<SpmdSimulator>(*lowering_, elemBytes, engine,
                                               relaxed, target_.targetKind);
    if (req.profile) sim->enableProfiling();
    if (req.seed) req.seed(sim->oracle());
    const std::int64_t startNs = tr != nullptr ? tr->nowNs() : 0;
    // Construction with its bytecode compile, arming, and seeding.
    if (tr != nullptr)
        tr->addCompleteSpan("sim-setup", "sim", setupNs, startNs - setupNs, 1);
    sim->run();
    if (tr != nullptr)
        tr->addCompleteSpan("sim-exec", "sim", startNs, tr->nowNs() - startNs,
                            1);
    return sim;
}

const char* stageName(CompileStage s) {
    switch (s) {
        case CompileStage::Finalize: return "finalize";
        case CompileStage::Cfg: return "cfg";
        case CompileStage::Dominators: return "dominators";
        case CompileStage::Ssa: return "ssa";
        case CompileStage::ConstProp: return "const-prop";
        case CompileStage::InductionRewrite: return "induction-rewrite";
        case CompileStage::DataMapping: return "data-mapping";
        case CompileStage::MappingPass: return "mapping-pass";
        case CompileStage::SpmdLowering: return "spmd-lowering";
        case CompileStage::Done: return "done";
    }
    return "?";
}

CompilePipeline::CompilePipeline(Program& p, TargetConfig target,
                                 PassOptions passes, CompileSession session)
    : prog_(p), session_(std::move(session)) {
    c_.program_ = &p;
    c_.target_ = std::move(target);
    c_.passes_ = passes;
    c_.tracer_ = session_.tracer != nullptr ? session_.tracer
                                            : std::make_shared<obs::Tracer>();
    compileSpan_ = c_.tracer_->beginSpan("compile", "pass");
}

CompilePipeline::~CompilePipeline() {
    // An abandoned pipeline must not leave the whole-run span dangling
    // open on a shared tracer.
    if (c_.tracer_ != nullptr && compileSpan_ >= 0)
        c_.tracer_->endSpan(compileSpan_);
}

bool CompilePipeline::step() {
    if (next_ == CompileStage::Done) return false;

    obs::Tracer* tr = c_.tracer_.get();
    obs::ScopedSpan span(tr, stageName(next_), "pass");
    switch (next_) {
        case CompileStage::Finalize:
            prog_.finalize();
            next_ = CompileStage::Cfg;
            break;
        case CompileStage::Cfg:
            c_.cfg_ = std::make_unique<Cfg>(prog_);
            next_ = CompileStage::Dominators;
            break;
        case CompileStage::Dominators:
            c_.dom_ = std::make_unique<Dominators>(*c_.cfg_);
            next_ = CompileStage::Ssa;
            break;
        case CompileStage::Ssa:
            c_.ssa_ = std::make_unique<SsaForm>(prog_, *c_.cfg_, *c_.dom_);
            next_ = CompileStage::ConstProp;
            break;
        case CompileStage::ConstProp:
            c_.constProp_ = std::make_unique<ConstProp>(*c_.ssa_);
            next_ = CompileStage::InductionRewrite;
            break;
        case CompileStage::InductionRewrite:
            if (c_.passes_.rewriteInduction) {
                c_.inductionRewrites_ =
                    rewriteInductionVars(prog_, *c_.ssa_, *c_.constProp_);
                if (c_.inductionRewrites_ > 0) {
                    if (session_.diags != nullptr)
                        session_.diags->note(
                            {}, "rewrote " +
                                    std::to_string(c_.inductionRewrites_) +
                                    " induction variable(s) to closed form");
                    // The tree changed: rebuild the dataflow world.
                    obs::ScopedSpan rebuild(tr, "dataflow-rebuild", "pass");
                    c_.cfg_ = std::make_unique<Cfg>(prog_);
                    c_.dom_ = std::make_unique<Dominators>(*c_.cfg_);
                    c_.ssa_ =
                        std::make_unique<SsaForm>(prog_, *c_.cfg_, *c_.dom_);
                    c_.constProp_ = std::make_unique<ConstProp>(*c_.ssa_);
                }
            }
            next_ = CompileStage::DataMapping;
            break;
        case CompileStage::DataMapping:
            c_.dataMapping_ = std::make_unique<DataMapping>(
                prog_, ProcGrid(c_.target_.gridExtents));
            next_ = CompileStage::MappingPass;
            break;
        case CompileStage::MappingPass:
            // DetermineMapping consults the target's cost hooks for its
            // decision-log pricing; the decisions themselves are
            // structural and target-independent.
            c_.mappingPass_ = std::make_unique<MappingPass>(
                prog_, *c_.ssa_, *c_.dataMapping_, c_.passes_.mapping,
                c_.target_.costModel,
                targetFor(c_.target_.targetKind).mappingHooks(c_.target_));
            c_.mappingPass_->run();
            next_ = CompileStage::SpmdLowering;
            break;
        case CompileStage::SpmdLowering:
            c_.lowering_ = targetFor(c_.target_.targetKind)
                               .lower(prog_, *c_.ssa_, *c_.dataMapping_,
                                      c_.mappingPass_->decisions(),
                                      c_.mappingPass_->reductions());
            next_ = CompileStage::Done;
            break;
        case CompileStage::Done:
            break;
    }

    if (next_ == CompileStage::Done) {
        span.close();
        if (tr != nullptr && compileSpan_ >= 0) {
            tr->endSpan(compileSpan_);
            compileSpan_ = -1;
        }
        // Freeze the run's diagnostics into the artifact so cached
        // compilations never dangle on a dead DiagEngine.
        if (session_.diags != nullptr) c_.diagnostics_ = session_.diags->all();
    }
    return true;
}

void CompilePipeline::run() {
    while (step()) {
    }
}

Compilation CompilePipeline::take() && {
    PHPF_ASSERT(done(), "take() on an unfinished compile pipeline");
    return std::move(c_);
}

Compilation Compiler::compile(Program& p, const TargetConfig& target,
                              const PassOptions& passes,
                              CompileSession session) {
    CompilePipeline pipe(p, target, passes, std::move(session));
    pipe.run();
    return std::move(pipe).take();
}

}  // namespace phpf
