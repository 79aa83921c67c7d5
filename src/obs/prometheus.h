#pragma once

#include <string>

#include "obs/metrics.h"

namespace phpf::obs {

/// Render a registry in the Prometheus text exposition format
/// (version 0.0.4 — what every scraper and promtool accept):
///
///   - counters  -> `<prefix>_<name>_total` with `# TYPE ... counter`
///   - gauges    -> `<prefix>_<name>` with `# TYPE ... gauge`
///   - histograms-> `<prefix>_<name>` summaries: quantile="0.5/0.9/0.99"
///                  sample lines plus `_sum` and `_count`
///
/// Metrics with a registered description (see describeMetric) get a
/// `# HELP` line before their `# TYPE` line, with `\` and newline
/// escaped per the exposition format.
///
/// Dotted metric names ("service.cache.hits") are sanitized to the
/// Prometheus charset by mapping every character outside
/// [a-zA-Z0-9_:] to '_'. The snapshot is taken under the registry's
/// structure lock, metric by metric, so scraping never blocks writers
/// for longer than one map walk.
[[nodiscard]] std::string renderPrometheus(const MetricRegistry& reg,
                                           const std::string& prefix = "phpf");

/// Sanitize one metric name to the Prometheus charset (no prefixing).
[[nodiscard]] std::string prometheusName(const std::string& name);

/// Escape a label value for the exposition format: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`.
[[nodiscard]] std::string prometheusLabelValue(const std::string& value);

/// Escape HELP text: `\` -> `\\`, newline -> `\n` (quotes are legal in
/// HELP text and left alone).
[[nodiscard]] std::string prometheusHelpText(const std::string& text);

/// Register (or overwrite) the human-readable description for a dotted
/// metric name ("service.compile_us"). Descriptions are keyed by the
/// *registry* name, before prefixing/sanitizing, and are shared
/// process-wide. A built-in table covers the metrics the service and
/// simulator export; call this for ad-hoc additions.
void describeMetric(const std::string& name, const std::string& help);

/// Look up a metric's description ("" when none registered).
[[nodiscard]] std::string metricDescription(const std::string& name);

}  // namespace phpf::obs
