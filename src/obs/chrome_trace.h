#pragma once

#include <string>

#include "obs/concurrent_trace.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace phpf::obs {

/// Convert a tracer's spans to the Chrome trace_event JSON format
/// (loadable in chrome://tracing and Perfetto). Each closed span becomes
/// a complete ("X") event; still-open spans are emitted with the tracer's
/// current time as their end. `processName` labels the (single) pid row.
[[nodiscard]] Json buildChromeTrace(const Tracer& tracer,
                                    const std::string& processName = "phpf");

/// Write the Chrome trace to `path`; returns false on I/O failure.
bool writeChromeTrace(const Tracer& tracer, const std::string& path,
                      const std::string& processName = "phpf");

/// Convert a ConcurrentTracer's merged spans to Chrome trace_event
/// JSON. Unlike the single-threaded overload, each recording thread
/// becomes its own named row: a thread_name metadata ("M") event per
/// registered tid (names from the process thread registry, e.g.
/// "svc-worker-2"), and every span is emitted on its real tid with its
/// span id and parent id in args so cross-thread parenting survives the
/// export.
[[nodiscard]] Json buildChromeTrace(const ConcurrentTracer& tracer,
                                    const std::string& processName = "phpf");

bool writeChromeTrace(const ConcurrentTracer& tracer, const std::string& path,
                      const std::string& processName = "phpf");

}  // namespace phpf::obs
