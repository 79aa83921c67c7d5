#include "obs/profiler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ir/printer.h"
#include "ir/program.h"
#include "obs/metrics.h"

namespace phpf::obs {

namespace {

/// One-line rendering of a leaf statement for profile rows and folded
/// frames.
std::string stmtText(const Program& p, const Stmt* s) {
    switch (s->kind) {
        case StmtKind::Assign:
            return printExpr(p, s->lhs) + " = " + printExpr(p, s->rhs);
        case StmtKind::If:
            return "if (" + printExpr(p, s->cond) + ")";
        case StmtKind::Do:
            return "do " + p.sym(s->loopVar).name;
        case StmtKind::Goto:
            return "goto " + std::to_string(s->gotoTarget);
        case StmtKind::Continue:
            return "continue";
    }
    return "?";
}

const char* stmtKindName(StmtKind k) {
    switch (k) {
        case StmtKind::Assign: return "assign";
        case StmtKind::If: return "if";
        case StmtKind::Do: return "do";
        case StmtKind::Goto: return "goto";
        case StmtKind::Continue: return "continue";
    }
    return "?";
}

/// Folded-stack frames must not contain the ';' separator, and
/// flamegraph.pl splits the sample count on the *last* space, so frame
/// text may contain spaces but not newlines.
std::string frameText(std::string s) {
    for (char& c : s)
        if (c == ';' || c == '\n' || c == '\r' || c == '\t') c = ' ';
    return s;
}

}  // namespace

void StmtProfile::setCounts(int id, std::int64_t instances,
                            const std::int64_t* perProc,
                            std::int64_t elements, std::int64_t events) {
    Row& r = rows_[static_cast<size_t>(id)];
    r.instances = instances;
    r.elements = elements;
    r.events = events;
    std::int64_t* base = perProc_.data() + static_cast<size_t>(id) *
                                               static_cast<size_t>(procCount_);
    std::copy(perProc, perProc + procCount_, base);
    r.procStmts = std::accumulate(base, base + procCount_, std::int64_t{0});
}

std::int64_t StmtProfile::maxProcStmts(int id) const {
    const std::int64_t* base =
        perProc_.data() +
        static_cast<size_t>(id) * static_cast<size_t>(procCount_);
    std::int64_t mx = 0;
    for (int p = 0; p < procCount_; ++p) mx = std::max(mx, base[p]);
    return mx;
}

double StmtProfile::imbalanceOf(int id) const {
    const Row& r = rows_[static_cast<size_t>(id)];
    if (r.procStmts == 0) return 0.0;
    const double mean = static_cast<double>(r.procStmts) /
                        static_cast<double>(procCount_);
    return static_cast<double>(maxProcStmts(id)) / mean;
}

Json profileJson(const Program& p, const StmtProfile& prof, int elemBytes) {
    Json root = Json::object();
    root.set("schema", "phpf.profile");
    root.set("sample_every",
             static_cast<std::int64_t>(StmtProfile::kSampleEvery));

    std::int64_t totInstances = 0;
    std::int64_t totProcStmts = 0;
    std::int64_t totElements = 0;
    std::int64_t totEvents = 0;
    Histogram selfHist;  // quantiles over per-statement self time

    Json stmts = Json::array();
    p.forEachStmt([&](const Stmt* s) {
        const StmtProfile::Row& r = prof.row(s->id);
        if (r.instances == 0 && r.procStmts == 0 && r.events == 0) return;
        totInstances += r.instances;
        totProcStmts += r.procStmts;
        totElements += r.elements;
        totEvents += r.events;
        const double selfUs = prof.selfUsEst(s->id);
        selfHist.record(selfUs);
        Json j = Json::object();
        j.set("id", s->id);
        j.set("kind", stmtKindName(s->kind));
        j.set("text", stmtText(p, s));
        j.set("line", static_cast<std::int64_t>(s->loc.line));
        j.set("instances", r.instances);
        j.set("proc_stmts", r.procStmts);
        j.set("max_proc_stmts", prof.maxProcStmts(s->id));
        j.set("imbalance", prof.imbalanceOf(s->id));
        j.set("elements", r.elements);
        j.set("events", r.events);
        j.set("bytes_moved", static_cast<double>(r.elements) * elemBytes);
        j.set("samples", r.samples);
        j.set("sampled_us", r.sampledUs);
        j.set("self_us_est", selfUs);
        stmts.push(std::move(j));
    });
    root.set("stmts", std::move(stmts));

    Json totals = Json::object();
    totals.set("instances", totInstances);
    totals.set("proc_stmts", totProcStmts);
    totals.set("elements", totElements);
    totals.set("events", totEvents);
    totals.set("bytes_moved", static_cast<double>(totElements) * elemBytes);
    root.set("totals", std::move(totals));

    Json q = Json::object();
    Json selfQ = Json::object();
    selfQ.set("p50", selfHist.p50());
    selfQ.set("p90", selfHist.p90());
    selfQ.set("p99", selfHist.p99());
    q.set("self_us_est", std::move(selfQ));
    root.set("quantiles", std::move(q));
    return root;
}

std::string foldedStacks(const Program& p, const StmtProfile& prof) {
    std::string out;
    const std::string rootFrame =
        frameText(p.name.empty() ? std::string("phpf") : p.name);
    p.forEachStmt([&](const Stmt* s) {
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) return;
        const StmtProfile::Row& r = prof.row(s->id);
        if (r.instances == 0) return;
        // Appended piecewise: GCC 12's -Wrestrict misfires on
        // ";" + std::string once inlined here.
        std::string line = rootFrame;
        for (const Stmt* l : p.enclosingLoops(s)) {
            line += ';';
            line += frameText("do " + p.sym(l->loopVar).name);
        }
        line += ';';
        line += frameText(stmtText(p, s) + "#" + std::to_string(s->id));
        const auto us =
            static_cast<std::int64_t>(std::llround(prof.selfUsEst(s->id)));
        line += ' ';
        line += std::to_string(us < 0 ? 0 : us);
        line += '\n';
        out += line;
    });
    return out;
}

}  // namespace phpf::obs
