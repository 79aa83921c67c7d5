#include "service/compile_service.h"

#include <algorithm>
#include <limits>

#include "frontend/parser.h"
#include "service/fingerprint.h"
#include "spmd/spmd_text.h"
#include "support/fault.h"

namespace phpf::service {

namespace {

double usSince(std::chrono::steady_clock::time_point t0) {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count()) /
           1000.0;
}

}  // namespace

const char* statusName(CompileStatus s) {
    switch (s) {
        case CompileStatus::Ok: return "ok";
        case CompileStatus::ParseError: return "parse-error";
        case CompileStatus::Error: return "error";
    }
    return "?";
}

CompileService::CompileService(ServiceConfig cfg)
    : cache_(cfg.cacheCapacity),
      pool_(std::make_unique<TaskPool>(
          std::min(cfg.workers > 0 ? cfg.workers : hardwareThreads(), 8))) {}

CompileService::~CompileService() { pool_->drain(); }

CompileResult CompileService::compile(const CompileRequest& req) {
    return compileAt(req, Clock::now());
}

std::shared_future<CompileResult> CompileService::submit(CompileRequest req) {
    const Clock::time_point submitted = Clock::now();
    auto promise = std::make_shared<std::promise<CompileResult>>();
    std::shared_future<CompileResult> fut(promise->get_future());
    pool_->post([this, req = std::move(req), submitted,
                 promise = std::move(promise)]() mutable {
        promise->set_value(compileAt(req, submitted));
    });
    return fut;
}

CompileResult CompileService::compileAt(const CompileRequest& req,
                                        Clock::time_point submitted) {
    CompileResult r;
    const auto finish = [&](CompileResult res) {
        res.totalUs = usSince(submitted);
        recordOutcome(res);
        return res;
    };

    // --- parse / build + fingerprint ---------------------------------
    const Clock::time_point parse0 = Clock::now();
    DiagEngine diags;
    std::unique_ptr<Program> prog;
    if (!req.source.empty()) {
        Parser parser(req.source, diags);
        prog = std::make_unique<Program>(parser.parse());
        if (diags.hasErrors()) {
            r.status = CompileStatus::ParseError;
            r.code = ErrorCode::ParseError;
            r.error = diags.dump();
            r.parseUs = usSince(parse0);
            return finish(std::move(r));
        }
    } else if (req.build) {
        try {
            prog = std::make_unique<Program>(req.build());
        } catch (const std::exception& e) {
            r.status = CompileStatus::Error;
            r.code = ErrorCode::BuilderFailed;
            r.error = std::string("builder failed: ") + e.what();
            r.parseUs = usSince(parse0);
            return finish(std::move(r));
        }
    } else {
        r.status = CompileStatus::Error;
        r.code = ErrorCode::EmptyRequest;
        r.error = "empty request: neither source nor builder set";
        return finish(std::move(r));
    }
    // The printed canonical form requires structural links.
    prog->finalize();
    std::string key = requestKey(*prog, req.target, req.passes);
    // Profiled artifacts carry the embedded simulation's profile and
    // calibration; they must never be served for an unprofiled request
    // (or vice versa), so the flag is part of the key.
    if (req.profile) key += "|profile";
    const double parseUs = usSince(parse0);

    // --- cache -------------------------------------------------------
    if (auto hit = cache_.get(key)) {
        r.status = CompileStatus::Ok;
        r.code = ErrorCode::None;
        r.artifact = std::move(hit);
        r.cacheHit = true;
    } else {
        r = runJob(req, key, std::move(prog), diags);
    }
    r.key = std::move(key);
    r.parseUs = parseUs;
    return finish(std::move(r));
}

CompileResult CompileService::runJob(const CompileRequest& req,
                                     const std::string& key,
                                     std::unique_ptr<Program> prog,
                                     DiagEngine& diags) {
    CompileResult r;
    const Clock::time_point compile0 = Clock::now();

    CompileSession session;
    session.diags = &diags;

    try {
        Compilation c =
            Compiler::compile(*prog, req.target, req.passes, std::move(session));
        auto artifact = std::make_shared<CompileArtifact>();
        artifact->key = key;
        artifact->programName = c.program().name;
        // Emission goes through the request's Target so a cached shm
        // artifact carries shm text — artifacts are self-contained
        // per-target (the key already leads with the target kind).
        artifact->spmdText = c.compileTarget().emitText(c.lowering());
        artifact->decisionReport = c.report();
        artifact->cost = c.predictCost();
        // Profiled requests run the embedded simulation here, on the
        // miss path, so the profile and calibration are cached with the
        // artifact.
        std::unique_ptr<SpmdSimulator> sim;
        if (req.profile) {
            SimulationRequest sreq;
            sreq.profile = true;
            sim = c.simulate(sreq);
        }
        artifact->runReport = c.buildRunReport(sim.get());
        if (sim != nullptr && sim->profile() != nullptr) {
            artifact->profiled = true;
            artifact->profile = artifact->runReport.at("profile");
            artifact->calibration = artifact->runReport.at("calibration");
        }
        auto owned = std::make_shared<Compilation>(std::move(c));
        owned->adoptProgram(std::move(prog));
        artifact->compilation = std::move(owned);

        r.status = CompileStatus::Ok;
        r.code = ErrorCode::None;
        r.artifact = std::move(artifact);
    } catch (const SimFault& e) {
        // A faulted embedded simulation (an out-of-range subscript) is
        // the program's own fault, not an internal error.
        r.status = CompileStatus::Error;
        r.code = ErrorCode::ProgramFault;
        r.error = e.what();
    } catch (const std::exception& e) {
        r.status = CompileStatus::Error;
        r.code = ErrorCode::Internal;
        r.error = e.what();
    }
    // Cache-poisoning guard: publication is the only put, and it is
    // gated on a fully assembled Ok artifact — a failure of any class
    // must never be served to a later identical request.
    if (r.status == CompileStatus::Ok) cache_.put(key, r.artifact);
    r.compileUs = usSince(compile0);
    return r;
}

void CompileService::recordOutcome(const CompileResult& r) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    switch (r.status) {
        case CompileStatus::Ok:
            if (!r.cacheHit) compiles_.fetch_add(1, std::memory_order_relaxed);
            break;
        case CompileStatus::ParseError:
            parseErrors_.fetch_add(1, std::memory_order_relaxed);
            break;
        case CompileStatus::Error:
            errors_.fetch_add(1, std::memory_order_relaxed);
            break;
    }
}

ServiceStats CompileService::stats() const {
    ServiceStats s;
    s.cache = cache_.stats();
    s.workers = pool_->threads();
    s.requests = requests_.load(std::memory_order_relaxed);
    s.compiles = compiles_.load(std::memory_order_relaxed);
    s.parseErrors = parseErrors_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    return s;
}

obs::Json CompileService::metricsJson() const {
    // A worker marks its job inactive only after it has handed out the
    // result, so a caller that has every result may still see a job
    // "active": drain first, then read the queue block.
    pool_->drain();
    const ServiceStats st = stats();
    obs::Json root = obs::Json::object();
    root.set("requests", st.requests);
    root.set("compiles", st.compiles);
    root.set("parse_errors", st.parseErrors);
    root.set("errors", st.errors);
    obs::Json cache = obs::Json::object();
    cache.set("hits", st.cache.hits);
    cache.set("misses", st.cache.misses);
    cache.set("evictions", st.cache.evictions);
    cache.set("size", static_cast<std::int64_t>(st.cache.size));
    // Saturated: a library-built cache may hold up to SIZE_MAX entries.
    cache.set("capacity",
              static_cast<std::int64_t>(std::min<std::size_t>(
                  st.cache.capacity, std::numeric_limits<std::int64_t>::max())));
    root.set("cache", std::move(cache));
    obs::Json queue = obs::Json::object();
    queue.set("depth", static_cast<std::int64_t>(pool_->queueDepth()));
    queue.set("active", pool_->active());
    queue.set("workers", st.workers);
    root.set("queue", std::move(queue));
    return root;
}

}  // namespace phpf::service
