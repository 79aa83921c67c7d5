#include "obs/chrome_trace.h"

#include <fstream>
#include <utility>

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

}  // namespace phpf::obs
