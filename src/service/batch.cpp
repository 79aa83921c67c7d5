#include "service/batch.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

#include "programs/programs.h"

namespace phpf::service {

namespace {

std::int64_t orDefault(std::int64_t v, std::int64_t dflt) {
    return v > 0 ? v : dflt;
}

/// Builtin kernels at smoke-friendly default sizes; every parameter can
/// be overridden per job.
bool builtinBuilder(const BatchJob& job, std::function<Program()>* out,
                    std::string* err) {
    const std::string& p = job.program;
    const std::int64_t n = job.n, niter = job.niter;
    const std::int64_t nx = job.nx, ny = job.ny, nz = job.nz;
    if (p == "fig1")
        *out = [n] { return programs::fig1(orDefault(n, 32)); };
    else if (p == "fig2")
        *out = [n] { return programs::fig2(orDefault(n, 32)); };
    else if (p == "fig4")
        *out = [n] { return programs::fig4(orDefault(n, 32)); };
    else if (p == "fig5")
        *out = [n] { return programs::fig5(orDefault(n, 16)); };
    else if (p == "fig6")
        *out = [nx, ny, nz] {
            return programs::fig6(orDefault(nx, 8), orDefault(ny, 8),
                                  orDefault(nz, 8));
        };
    else if (p == "fig7")
        *out = [n] { return programs::fig7(orDefault(n, 32)); };
    else if (p == "tomcatv")
        *out = [n, niter] {
            return programs::tomcatv(orDefault(n, 64), orDefault(niter, 2));
        };
    else if (p == "dgefa")
        *out = [n] { return programs::dgefa(orDefault(n, 16)); };
    else if (p == "appsp")
        *out = [nx, ny, nz, niter] {
            return programs::appsp(orDefault(nx, 8), orDefault(ny, 8),
                                   orDefault(nz, 8), orDefault(niter, 2),
                                   /*oneD=*/true);
        };
    else if (p == "appsp2d")
        *out = [nx, ny, nz, niter] {
            return programs::appsp(orDefault(nx, 8), orDefault(ny, 8),
                                   orDefault(nz, 8), orDefault(niter, 2),
                                   /*oneD=*/false);
        };
    else if (p == "adi")
        *out = [n, niter] {
            return programs::adi(orDefault(n, 16), orDefault(niter, 2));
        };
    else {
        if (err != nullptr) *err = "unknown builtin program '" + p + "'";
        return false;
    }
    return true;
}

bool parseOptions(const obs::Json& o, BatchJob* job, std::string* err) {
    for (const std::string& key : o.keys()) {
        const obs::Json& v = o.at(key);
        MappingOptions& m = job->passes.mapping;
        if (key == "privatization") m.privatization = v.boolValue();
        else if (key == "align_policy") {
            if (v.stringValue() == "selected")
                m.alignPolicy = MappingOptions::AlignPolicy::Selected;
            else if (v.stringValue() == "producer-only")
                m.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
            else {
                *err = "bad align_policy '" + v.stringValue() + "'";
                return false;
            }
        } else if (key == "reduction_alignment")
            m.reductionAlignment = v.boolValue();
        else if (key == "array_privatization")
            m.arrayPrivatization = v.boolValue();
        else if (key == "partial_privatization")
            m.partialPrivatization = v.boolValue();
        else if (key == "auto_array_privatization")
            m.autoArrayPrivatization = v.boolValue();
        else if (key == "control_flow_privatization")
            m.controlFlowPrivatization = v.boolValue();
        else if (key == "rewrite_induction")
            job->passes.rewriteInduction = v.boolValue();
        else if (key == "elem_bytes") {
            // Byte accounting scales by it: zero or a negative size would
            // price communication at zero or negative bytes.
            if (v.intValue() < 1 || v.intValue() > INT_MAX) {
                *err = "elem_bytes must be a positive size, got " + v.dump();
                return false;
            }
            job->target.costModel.elemBytes = static_cast<int>(v.intValue());
        }
        else if (key == "combine_messages")
            job->target.costModel.combineMessages = v.boolValue();
        else if (key == "sim_engine") {
            if (!parseSimEngine(v.stringValue(), &job->passes.simEngine)) {
                *err = "bad sim_engine '" + v.stringValue() +
                       "' (want interp|bytecode)";
                return false;
            }
        } else if (key == "relaxed_merge")
            job->passes.relaxedMerge = v.boolValue();
        else if (key == "target") {
            if (!parseTargetKind(v.stringValue(),
                                 &job->target.targetKind)) {
                *err = "bad target '" + v.stringValue() + "' (want mp|shm)";
                return false;
            }
        } else {
            *err = "unknown option '" + key + "'";
            return false;
        }
    }
    return true;
}

/// Parse ONE job object (`index` only labels errors and the
/// synthesized default name).
bool parseBatchJob(const obs::Json& j, int index, BatchJob* job,
                   std::string* err) {
    if (!j.isObject()) {
        *err = "job " + std::to_string(index) + " is not an object";
        return false;
    }
    // A misspelt key ("grd") or an option outside "options" would
    // otherwise run the job with a default the file did not ask for.
    static constexpr std::string_view kKeys[] = {
        "name", "program", "file", "source",  "n",       "niter", "nx",
        "ny",   "nz",      "grid", "profile", "options", "repeat"};
    for (const std::string& key : j.keys()) {
        if (std::find(std::begin(kKeys), std::end(kKeys), key) ==
            std::end(kKeys)) {
            *err = "job " + std::to_string(index) + ": unknown key '" +
                   key + "'";
            return false;
        }
    }
    if (const obs::Json* v = j.find("name")) job->name = v->stringValue();
    if (const obs::Json* v = j.find("program")) job->program = v->stringValue();
    if (const obs::Json* v = j.find("file")) job->file = v->stringValue();
    if (const obs::Json* v = j.find("source")) job->source = v->stringValue();
    if (const obs::Json* v = j.find("n")) job->n = v->intValue();
    if (const obs::Json* v = j.find("niter")) job->niter = v->intValue();
    if (const obs::Json* v = j.find("nx")) job->nx = v->intValue();
    if (const obs::Json* v = j.find("ny")) job->ny = v->intValue();
    if (const obs::Json* v = j.find("nz")) job->nz = v->intValue();
    if (const obs::Json* v = j.find("profile")) job->profile = v->boolValue();
    if (const obs::Json* v = j.find("grid")) {
        const auto positive = [](const obs::Json& e) {
            return e.intValue() >= 1 && e.intValue() <= INT_MAX;
        };
        if (!v->isArray() || v->size() == 0 ||
            !std::all_of(v->items().begin(), v->items().end(), positive)) {
            *err = "job " + std::to_string(index) + ": grid must be a "
                   "nonempty array of positive extents";
            return false;
        }
        job->target.gridExtents.clear();
        for (const obs::Json& e : v->items())
            job->target.gridExtents.push_back(static_cast<int>(e.intValue()));
    }
    if (const obs::Json* v = j.find("options")) {
        if (!v->isObject()) {
            *err = "job " + std::to_string(index) + ": options must be an "
                   "object";
            return false;
        }
        std::string oerr;
        if (!parseOptions(*v, job, &oerr)) {
            *err = "job " + std::to_string(index) + ": " + oerr;
            return false;
        }
    }
    const int sources = (job->program.empty() ? 0 : 1) +
                        (job->file.empty() ? 0 : 1) +
                        (job->source.empty() ? 0 : 1);
    if (sources != 1) {
        *err = "job " + std::to_string(index) +
               ": exactly one of program/file/source required";
        return false;
    }
    if (job->name.empty()) {
        std::ostringstream name;
        if (!job->program.empty()) name << job->program;
        else if (!job->file.empty()) name << job->file;
        else name << "inline";
        name << "/grid=";
        for (size_t i = 0; i < job->target.gridExtents.size(); ++i)
            name << (i > 0 ? "x" : "") << job->target.gridExtents[i];
        name << "#" << index;
        job->name = name.str();
    }
    return true;
}

}  // namespace

const std::vector<std::string>& builtinProgramNames() {
    static const std::vector<std::string> names = {
        "fig1", "fig2",  "fig4",    "fig5", "fig6", "fig7",
        "adi",  "dgefa", "tomcatv", "appsp", "appsp2d"};
    return names;
}

bool parseBatchSpec(const obs::Json& doc, BatchSpec* out, std::string* err) {
    const obs::Json* jobs = nullptr;
    if (doc.isArray()) jobs = &doc;
    else if (doc.isObject()) jobs = doc.find("jobs");
    if (jobs == nullptr || !jobs->isArray()) {
        *err = "expected {\"jobs\": [...]} or a bare array of jobs";
        return false;
    }
    // "repeat" duplicates a row N times — handy for cache smoke tests
    // without copy-pasting job objects.
    int index = 0;
    for (const obs::Json& j : jobs->items()) {
        std::int64_t repeat = 1;
        if (j.isObject()) {
            if (const obs::Json* v = j.find("repeat")) repeat = v->intValue();
        }
        if (repeat < 1) repeat = 1;
        for (std::int64_t rep = 0; rep < repeat; ++rep) {
            BatchJob job;
            if (!parseBatchJob(j, index, &job, err)) return false;
            if (repeat > 1 && rep > 0)
                job.name += "~rep" + std::to_string(rep);
            out->jobs.push_back(std::move(job));
            ++index;
        }
    }
    if (out->jobs.empty()) {
        *err = "jobs file contains no jobs";
        return false;
    }
    return true;
}

bool loadBatchFile(const std::string& path, BatchSpec* out, std::string* err) {
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string perr;
    const obs::Json doc = obs::Json::parse(buf.str(), &perr);
    if (!perr.empty()) {
        *err = path + ": " + perr;
        return false;
    }
    return parseBatchSpec(doc, out, err);
}

bool requestOfJob(const BatchJob& job, CompileRequest* out, std::string* err) {
    out->name = job.name;
    out->target = job.target;
    out->passes = job.passes;
    out->profile = job.profile;
    if (!job.source.empty()) {
        out->source = job.source;
    } else if (!job.file.empty()) {
        std::ifstream in(job.file);
        if (!in) {
            *err = "cannot open " + job.file;
            return false;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        out->source = buf.str();
        if (out->source.empty()) {
            *err = job.file + " is empty";
            return false;
        }
    } else {
        if (!builtinBuilder(job, &out->build, err)) return false;
    }
    return true;
}

BatchOutcome runBatch(CompileService& svc, const BatchSpec& spec,
                      std::ostream& out) {
    const auto t0 = std::chrono::steady_clock::now();
    BatchOutcome outcome;
    outcome.jobs = static_cast<int>(spec.jobs.size());
    // Per-job model-error MAPE of the profiled rows, for the summary's
    // calibration section.
    std::map<std::string, double> mapeByJob;

    struct Pending {
        const BatchJob* job;
        std::shared_future<CompileResult> fut;
        std::string error;  ///< request construction failure
    };
    std::vector<Pending> pending;
    pending.reserve(spec.jobs.size());
    for (const BatchJob& job : spec.jobs) {
        Pending p;
        p.job = &job;
        CompileRequest req;
        std::string err;
        if (requestOfJob(job, &req, &err))
            p.fut = svc.submit(std::move(req));
        else
            p.error = std::move(err);
        pending.push_back(std::move(p));
    }

    for (const Pending& p : pending) {
        obs::Json row = obs::Json::object();
        row.set("job", p.job->name);
        obs::Json grid = obs::Json::array();
        for (int e : p.job->target.gridExtents) grid.push(e);
        row.set("grid", std::move(grid));
        if (!p.error.empty()) {
            row.set("status", "bad-request");
            row.set("code", errorCodeName(ErrorCode::EmptyRequest));
            row.set("error", p.error);
            ++outcome.failed;
            out << row.dump(-1) << "\n";
            continue;
        }
        const CompileResult r = p.fut.get();
        row.set("status", statusName(r.status));
        row.set("code", errorCodeName(r.code));
        row.set("cache_hit", r.cacheHit);
        row.set("parse_us", r.parseUs);
        row.set("compile_us", r.compileUs);
        row.set("total_us", r.totalUs);
        if (r.status == CompileStatus::Ok) {
            ++outcome.ok;
            if (r.cacheHit) ++outcome.cacheHits;
            row.set("program", r.artifact->programName);
            // The run report's own object: one schema for the numbers.
            row.set("cost_prediction",
                    r.artifact->runReport.at("cost_prediction"));
            row.set("decisions",
                    static_cast<std::int64_t>(
                        r.artifact->runReport.at("decisions").size()));
            row.set("comm_ops",
                    static_cast<std::int64_t>(
                        r.artifact->runReport.at("comm_ops").size()));
            if (r.artifact->profiled) {
                // Cached with the artifact, so warm hits replay the
                // identical calibration the cold compile produced.
                const obs::Json& cs = r.artifact->calibration.at("summary");
                obs::Json cal = obs::Json::object();
                cal.set("mape_sec_pct", cs.at("mape_sec_pct").numberValue());
                cal.set("mape_events_pct",
                        cs.at("mape_events_pct").numberValue());
                cal.set("rows", cs.at("rows").intValue());
                cal.set("joined", cs.at("joined").intValue());
                row.set("calibration", std::move(cal));
                mapeByJob[p.job->name] =
                    cs.at("mape_sec_pct").numberValue();
            }
        } else {
            ++outcome.failed;
            row.set("error", r.error);
        }
        out << row.dump(-1) << "\n";
    }

    outcome.wallSec =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()) /
        1e6;

    obs::Json summary = obs::Json::object();
    summary.set("summary", true);
    summary.set("schema", "phpf.batch_report");
    // v2: the embedded service registry's histograms gained
    // p50/p90/p99 quantile estimates.
    // v3: profiled jobs carry a per-row "calibration" object and the
    // summary aggregates their model-error MAPE.
    // v4: no "skipped" count (the journal and resume are gone).
    // v5: rows carry the run report's "cost_prediction" object in place
    // of five flat cost fields and drop "coalesced"; the summary drops
    // "coalesced_joins", and its "service" block carries plain counts
    // in place of the metric registry.
    summary.set("schema_version", 5);
    summary.set("jobs", outcome.jobs);
    summary.set("ok", outcome.ok);
    summary.set("failed", outcome.failed);
    summary.set("cache_hits", outcome.cacheHits);
    summary.set("wall_sec", outcome.wallSec);
    if (!mapeByJob.empty()) {
        obs::Json cal = obs::Json::object();
        cal.set("jobs_profiled",
                static_cast<std::int64_t>(mapeByJob.size()));
        double sum = 0.0;
        obs::Json perJob = obs::Json::array();
        // Input order, not map order, so the summary reads like the
        // batch.
        for (const BatchJob& job : spec.jobs) {
            const auto it = mapeByJob.find(job.name);
            if (it == mapeByJob.end()) continue;
            sum += it->second;
            obs::Json pj = obs::Json::object();
            pj.set("job", job.name);
            pj.set("mape_sec_pct", it->second);
            perJob.push(std::move(pj));
        }
        cal.set("mean_mape_sec_pct",
                sum / static_cast<double>(mapeByJob.size()));
        cal.set("per_job", std::move(perJob));
        summary.set("calibration", std::move(cal));
    }
    summary.set("service", svc.metricsJson());
    out << summary.dump(-1) << "\n";
    return outcome;
}

}  // namespace phpf::service
