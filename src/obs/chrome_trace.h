#pragma once

#include <string>

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

}  // namespace phpf::obs
