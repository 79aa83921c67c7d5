#include "obs/prometheus.h"

#include <cctype>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace phpf::obs {

namespace {

void appendValue(std::ostringstream& out, double v) {
    // Prometheus accepts Go-style floats; default ostream formatting of
    // doubles is compatible (no locale grouping, '.' decimal point).
    out << v;
}

/// Descriptions keyed by the dotted registry name. Seeded with the
/// metrics the service and simulator export so scrapes are
/// self-documenting out of the box; describeMetric() extends it.
class DescriptionRegistry {
public:
    static DescriptionRegistry& instance() {
        static DescriptionRegistry r;
        return r;
    }

    void set(const std::string& name, const std::string& help) {
        std::lock_guard<std::mutex> lock(mu_);
        map_[name] = help;
    }

    std::string get(const std::string& name) const {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(name);
        return it == map_.end() ? std::string() : it->second;
    }

private:
    DescriptionRegistry() {
        static const struct {
            const char* name;
            const char* help;
        } kBuiltin[] = {
            {"service.requests", "Compile requests accepted by the service"},
            {"service.compiles", "Requests that ran the full compile pipeline"},
            {"service.cache.hits", "Requests served from the artifact cache"},
            {"service.coalesced_joins",
             "Requests coalesced onto an identical in-flight compile"},
            {"service.errors", "Requests that failed with an error"},
            {"service.parse_errors", "Requests rejected at the parse stage"},
            {"service.deadline_exceeded",
             "Requests abandoned past their deadline"},
            {"service.queue.depth", "Jobs waiting for a service worker thread"},
            {"service.compile_us", "Compile-pipeline latency per request"},
            {"service.parse_us", "Parse-stage latency per request"},
            {"service.total_us", "End-to-end service latency per request"},
            {"service.queue_wait_us", "Queue wait before a worker picked up"},
            {"sim.phase.eval_us", "Simulator eval-phase latency per step"},
            {"sim.phase.merge_us", "Simulator merge-phase latency per step"},
            {"stmt_self_time.us", "Per-statement self time from the profiler"},
            {"model_error.row_err_pct",
             "Per-row cost-model error against measurement"},
            {"model_error.mape_sec_pct",
             "Mean absolute percentage error of modeled seconds"},
            {"model_error.mape_events_pct",
             "Mean absolute percentage error of modeled event counts"},
            {"model_error.mape_bytes_pct",
             "Mean absolute percentage error of modeled bytes"},
            {"model_error.rows_joined",
             "Measurement rows joined against the cost model"},
        };
        for (const auto& e : kBuiltin) map_[e.name] = e.help;
    }

    mutable std::mutex mu_;
    std::unordered_map<std::string, std::string> map_;
};

void appendHelp(std::ostringstream& out, const std::string& dottedName,
                const std::string& exposedName) {
    const std::string help = metricDescription(dottedName);
    if (!help.empty())
        out << "# HELP " << exposedName << " " << prometheusHelpText(help)
            << "\n";
}

}  // namespace

std::string prometheusName(const std::string& name) {
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (out.empty()) out = "_";
    // Names must not start with a digit.
    if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
    return out;
}

std::string prometheusLabelValue(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out.push_back(c);
        }
    }
    return out;
}

std::string prometheusHelpText(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            default: out.push_back(c);
        }
    }
    return out;
}

void describeMetric(const std::string& name, const std::string& help) {
    DescriptionRegistry::instance().set(name, help);
}

std::string metricDescription(const std::string& name) {
    return DescriptionRegistry::instance().get(name);
}

std::string renderPrometheus(const MetricRegistry& reg,
                             const std::string& prefix) {
    std::ostringstream out;
    const std::string p = prefix.empty() ? "" : prometheusName(prefix) + "_";

    reg.forEachCounter([&](const std::string& name, const Counter& c) {
        const std::string n = p + prometheusName(name) + "_total";
        appendHelp(out, name, n);
        out << "# TYPE " << n << " counter\n";
        out << n << " " << c.value() << "\n";
    });

    reg.forEachGauge([&](const std::string& name, const Gauge& g) {
        const std::string n = p + prometheusName(name);
        appendHelp(out, name, n);
        out << "# TYPE " << n << " gauge\n";
        out << n << " ";
        appendValue(out, g.value());
        out << "\n";
    });

    reg.forEachHistogram([&](const std::string& name, const Histogram& h) {
        const std::string n = p + prometheusName(name);
        appendHelp(out, name, n);
        out << "# TYPE " << n << " summary\n";
        static constexpr double kQs[] = {0.5, 0.9, 0.99};
        static constexpr const char* kQLabels[] = {"0.5", "0.9", "0.99"};
        for (int i = 0; i < 3; ++i) {
            out << n << "{quantile=\"" << kQLabels[i] << "\"} ";
            appendValue(out, h.quantile(kQs[i]));
            out << "\n";
        }
        out << n << "_sum ";
        appendValue(out, h.sum());
        out << "\n";
        out << n << "_count " << h.count() << "\n";
    });

    return out.str();
}

}  // namespace phpf::obs
