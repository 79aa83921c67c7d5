#include "obs/chrome_trace.h"

#include <fstream>
#include <set>
#include <utility>

#include "support/thread_registry.h"

namespace phpf::obs {

Json buildChromeTrace(const Tracer& tracer, const std::string& processName) {
    Json root = Json::object();
    Json events = Json::array();

    // Process/thread name metadata so the Perfetto track is labelled.
    Json meta = Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", 1);
    Json metaArgs = Json::object();
    metaArgs.set("name", processName);
    meta.set("args", std::move(metaArgs));
    events.push(std::move(meta));

    const std::int64_t nowNs = tracer.nowNs();
    for (const TraceSpan& s : tracer.spans()) {
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", s.category.empty() ? std::string("span") : s.category);
        e.set("ph", "X");
        // trace_event timestamps are microseconds (doubles allowed).
        e.set("ts", static_cast<double>(s.startNs) / 1000.0);
        const std::int64_t dur = s.closed() ? s.durNs : nowNs - s.startNs;
        e.set("dur", static_cast<double>(dur) / 1000.0);
        e.set("pid", 1);
        e.set("tid", 1);
        Json args = Json::object();
        args.set("depth", s.depth);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    return root;
}

bool writeChromeTrace(const Tracer& tracer, const std::string& path,
                      const std::string& processName) {
    std::ofstream out(path);
    if (!out) return false;
    out << buildChromeTrace(tracer, processName).dump() << "\n";
    return static_cast<bool>(out);
}

Json buildChromeTrace(const ConcurrentTracer& tracer,
                      const std::string& processName) {
    Json root = Json::object();
    Json events = Json::array();

    const std::vector<ConcurrentSpan> spans = tracer.snapshot();

    Json procMeta = Json::object();
    procMeta.set("name", "process_name");
    procMeta.set("ph", "M");
    procMeta.set("pid", 1);
    procMeta.set("tid", 0);
    Json procArgs = Json::object();
    procArgs.set("name", processName);
    procMeta.set("args", std::move(procArgs));
    events.push(std::move(procMeta));

    // One named row per recording thread; sort index = tid keeps the
    // main thread on top and workers in pool order.
    std::set<int> tids;
    for (const ConcurrentSpan& s : spans) tids.insert(s.tid);
    for (const int tid : tids) {
        Json nameMeta = Json::object();
        nameMeta.set("name", "thread_name");
        nameMeta.set("ph", "M");
        nameMeta.set("pid", 1);
        nameMeta.set("tid", tid);
        Json nameArgs = Json::object();
        nameArgs.set("name", thread_registry::nameOf(tid));
        nameMeta.set("args", std::move(nameArgs));
        events.push(std::move(nameMeta));

        Json sortMeta = Json::object();
        sortMeta.set("name", "thread_sort_index");
        sortMeta.set("ph", "M");
        sortMeta.set("pid", 1);
        sortMeta.set("tid", tid);
        Json sortArgs = Json::object();
        sortArgs.set("sort_index", tid);
        sortMeta.set("args", std::move(sortArgs));
        events.push(std::move(sortMeta));
    }

    const std::int64_t nowNs = tracer.nowNs();
    for (const ConcurrentSpan& s : spans) {
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", s.category.empty() ? std::string("span") : s.category);
        e.set("ph", "X");
        e.set("ts", static_cast<double>(s.startNs) / 1000.0);
        const std::int64_t dur = s.closed() ? s.durNs : nowNs - s.startNs;
        e.set("dur", static_cast<double>(dur) / 1000.0);
        e.set("pid", 1);
        e.set("tid", s.tid);
        Json args = Json::object();
        args.set("span_id", static_cast<std::int64_t>(s.id));
        args.set("parent_id", static_cast<std::int64_t>(s.parent));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    return root;
}

bool writeChromeTrace(const ConcurrentTracer& tracer, const std::string& path,
                      const std::string& processName) {
    std::ofstream out(path);
    if (!out) return false;
    out << buildChromeTrace(tracer, processName).dump() << "\n";
    return static_cast<bool>(out);
}

}  // namespace phpf::obs
