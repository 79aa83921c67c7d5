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
        case CompileStatus::DeadlineExceeded: return "deadline-exceeded";
        case CompileStatus::Error: return "error";
    }
    return "?";
}

CompileService::CompileService(ServiceConfig cfg)
    : cache_(cfg.cacheCapacity, cfg.cacheShards),
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
        registry_.histogram("service.queue_wait_us").record(usSince(submitted));
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
    r.key = key;
    r.parseUs = usSince(parse0);

    // --- cache -------------------------------------------------------
    if (auto hit = cache_.get(key)) {
        r.status = CompileStatus::Ok;
        r.code = ErrorCode::None;
        r.artifact = std::move(hit);
        r.cacheHit = true;
        return finish(std::move(r));
    }

    // --- coalesce with an identical in-flight compile ----------------
    // Joiners only ever adopt a *successful* leader result: a leader's
    // failure may be its own (its deadline ran out, not the joiner's),
    // so adopting it would fan one request's failure out to every
    // waiter. A joiner that observes a failed leader loops back and
    // compiles for itself (the bound only guards against a pathological
    // key that fails forever under heavy contention).
    std::shared_ptr<Inflight> mine;
    for (int joins = 0; mine == nullptr; ++joins) {
        std::shared_ptr<Inflight> theirs;
        {
            std::unique_lock<std::mutex> lock(inflightMu_);
            auto it = inflight_.find(key);
            if (it == inflight_.end()) {
                mine = std::make_shared<Inflight>();
                inflight_.emplace(key, mine);
                break;
            }
            theirs = it->second;
        }
        std::unique_lock<std::mutex> wait(theirs->mu);
        theirs->cv.wait(wait, [&] { return theirs->done; });
        CompileResult joined = theirs->result;
        wait.unlock();
        if (joined.status == CompileStatus::Ok || joins >= 4) {
            joined.coalesced = true;
            joined.cacheHit = false;
            joined.key = key;
            joined.parseUs = r.parseUs;
            joined.compileUs = 0;
            return finish(std::move(joined));
        }
    }

    // A leader may have published between our cache miss and the
    // inflight registration; one re-check keeps that window from
    // recompiling.
    if (auto hit = cache_.get(key, /*countMiss=*/false)) {
        r.status = CompileStatus::Ok;
        r.code = ErrorCode::None;
        r.artifact = std::move(hit);
        r.cacheHit = true;
    } else {
        const double parseUs = r.parseUs;
        r = runJob(req, key, std::move(prog), diags, submitted);
        r.parseUs = parseUs;
    }

    // Publish to joiners, then retire the in-flight entry.
    {
        std::lock_guard<std::mutex> done(mine->mu);
        mine->result = r;
        mine->done = true;
    }
    mine->cv.notify_all();
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        inflight_.erase(key);
    }
    return finish(std::move(r));
}

CompileResult CompileService::runJob(const CompileRequest& req,
                                     const std::string& key,
                                     std::unique_ptr<Program> prog,
                                     DiagEngine& diags,
                                     Clock::time_point submitted) {
    CompileResult r;
    r.key = key;
    const Clock::time_point compile0 = Clock::now();

    CancelSource cancel;
    if (req.deadlineMs > 0)
        cancel.setDeadlineAfter(std::chrono::milliseconds(req.deadlineMs) -
                                (Clock::now() - submitted));

    CompileSession session;
    session.tracer = std::make_shared<obs::Tracer>();
    session.diags = &diags;
    session.cancel = cancel.token();

    try {
        CompilePipeline pipe(*prog, req.target, req.passes,
                             std::move(session));
        if (!pipe.run()) {
            r.status = CompileStatus::DeadlineExceeded;
            r.code = ErrorCode::DeadlineExceeded;
            r.error = "deadline of " + std::to_string(req.deadlineMs) +
                      " ms exceeded before stage '" +
                      stageName(pipe.next()) + "'";
            r.compileUs = usSince(compile0);
            return r;
        }

        auto artifact = std::make_shared<CompileArtifact>();
        artifact->key = key;
        Compilation c = std::move(pipe).take();
        artifact->programName = c.program().name;
        // Emission goes through the request's Target so a cached shm
        // artifact carries shm text — artifacts are self-contained
        // per-target (the key already leads with the target kind).
        artifact->spmdText = c.compileTarget().emitText(c.lowering());
        artifact->decisionReport = c.report();
        artifact->cost = c.predictCost();
        // Profiled requests run the embedded simulation here, on the
        // miss path, so the profile and calibration are cached with the
        // artifact; the request's deadline covers the simulation too
        // (a cancelled sim surfaces as the SimFault handled below).
        std::unique_ptr<SpmdSimulator> sim;
        if (req.profile) {
            SimulationRequest sreq;
            sreq.profile = true;
            sreq.cancel = cancel.token();
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

        // Per-stage latency histograms from the pipeline's own spans.
        for (const obs::TraceSpan& s :
             artifact->compilation->tracer()->spans()) {
            if (s.category != "pass" || !s.closed() || s.name == "compile")
                continue;
            registry_.histogram("service.stage." + s.name + "_us")
                .record(static_cast<double>(s.durNs) / 1000.0);
        }

        r.status = CompileStatus::Ok;
        r.code = ErrorCode::None;
        r.artifact = std::move(artifact);
    } catch (const SimFault& e) {
        // A cancelled or faulted embedded simulation is a typed outcome,
        // not an internal error. Any other site (an out-of-range
        // subscript) is the program's own fault.
        const bool cancelled = e.site() == faultsite::kSimCancel;
        r.status = cancelled ? CompileStatus::DeadlineExceeded
                             : CompileStatus::Error;
        r.code = cancelled ? ErrorCode::DeadlineExceeded
                           : ErrorCode::ProgramFault;
        r.error = e.what();
    } catch (const std::exception& e) {
        r.status = CompileStatus::Error;
        r.code = ErrorCode::Internal;
        r.error = e.what();
    }
    // Cache-poisoning guard: publication is the only put, and it is
    // gated on a fully assembled Ok artifact — a failure of any class
    // must never be served to a later identical request.
    if (r.status == CompileStatus::Ok && r.artifact != nullptr)
        cache_.put(key, r.artifact);
    r.compileUs = usSince(compile0);
    return r;
}

void CompileService::recordOutcome(const CompileResult& r) {
    registry_.counter("service.requests").add();
    switch (r.status) {
        case CompileStatus::Ok:
            if (r.cacheHit)
                registry_.counter("service.cache.hits").add();
            else if (r.coalesced)
                registry_.counter("service.coalesced_joins").add();
            else
                registry_.counter("service.compiles").add();
            break;
        case CompileStatus::ParseError:
            registry_.counter("service.parse_errors").add();
            break;
        case CompileStatus::DeadlineExceeded:
            registry_.counter("service.deadline_exceeded").add();
            break;
        case CompileStatus::Error:
            registry_.counter("service.errors").add();
            break;
    }
    if (r.coalesced && r.status != CompileStatus::Ok)
        registry_.counter("service.coalesced_joins").add();
    registry_.histogram("service.total_us").record(r.totalUs);
    if (r.parseUs > 0) registry_.histogram("service.parse_us").record(r.parseUs);
    if (r.compileUs > 0)
        registry_.histogram("service.compile_us").record(r.compileUs);
}

ServiceStats CompileService::stats() const {
    ServiceStats s;
    s.cache = cache_.stats();
    s.workers = pool_->threads();
    s.requests = registry_.counterValue("service.requests");
    s.compiles = registry_.counterValue("service.compiles");
    s.coalescedJoins = registry_.counterValue("service.coalesced_joins");
    s.parseErrors = registry_.counterValue("service.parse_errors");
    s.deadlineExceeded = registry_.counterValue("service.deadline_exceeded");
    s.errors = registry_.counterValue("service.errors");
    return s;
}

obs::Json CompileService::metricsJson() const {
    // A worker marks its job inactive only after it has handed out the
    // result, so a caller that has every result may still see a job
    // "active": drain first, then read the queue block.
    pool_->drain();
    obs::Json root = obs::Json::object();
    root.set("registry", registry_.toJson());
    const CacheStats cs = cache_.stats();
    obs::Json cache = obs::Json::object();
    cache.set("hits", cs.hits);
    cache.set("misses", cs.misses);
    cache.set("evictions", cs.evictions);
    cache.set("size", static_cast<std::int64_t>(cs.size));
    // Saturated: a library-built cache may hold up to SIZE_MAX entries.
    cache.set("capacity",
              static_cast<std::int64_t>(std::min<std::size_t>(
                  cs.capacity, std::numeric_limits<std::int64_t>::max())));
    cache.set("shards", cs.shards);
    root.set("cache", std::move(cache));
    obs::Json queue = obs::Json::object();
    queue.set("depth", static_cast<std::int64_t>(pool_->queueDepth()));
    queue.set("active", pool_->active());
    queue.set("workers", pool_->threads());
    root.set("queue", std::move(queue));
    return root;
}

}  // namespace phpf::service
