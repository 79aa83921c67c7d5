// The service-grade telemetry layer: quantile estimation on the
// fixed-boundary histograms, Prometheus text exposition, the
// thread-safe concurrent tracer (cross-thread span parenting, Tracer
// import, per-thread Chrome rows), the process thread registry with
// pool worker naming, and the loopback HTTP exposition endpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/compiler.h"
#include "obs/chrome_trace.h"
#include "obs/concurrent_trace.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "programs/programs.h"
#include "service/http_exposition.h"
#include "support/parallel.h"
#include "support/thread_registry.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define PHPF_TEST_SOCKETS 1
#else
#define PHPF_TEST_SOCKETS 0
#endif

namespace phpf {
namespace {

using obs::ConcurrentScopedSpan;
using obs::ConcurrentSpan;
using obs::ConcurrentTracer;
using obs::ContextScope;
using obs::Histogram;
using obs::Json;
using obs::MetricRegistry;
using obs::SpanContext;

// ---------------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------------

TEST(TelemetryQuantiles, UniformDistributionEstimatesAreTight) {
    Histogram h;
    // 1..1000 uniformly: inside each power-of-two bucket the samples
    // really are uniform, so the interpolation should be near-exact.
    for (int v = 1; v <= 1000; ++v) h.record(v);
    EXPECT_NEAR(h.p50(), 500.0, 25.0);
    EXPECT_NEAR(h.p90(), 900.0, 25.0);
    EXPECT_NEAR(h.p99(), 990.0, 25.0);
    EXPECT_NEAR(h.quantile(0.0), 1.0, 1.0);
    EXPECT_NEAR(h.quantile(1.0), 1000.0, 1.0);
}

TEST(TelemetryQuantiles, ConstantDistributionCollapsesToTheValue) {
    Histogram h;
    for (int i = 0; i < 100; ++i) h.record(42.0);
    // The covering bucket is [32, 64) but the observed min/max clamp
    // the interpolation to the single real value.
    EXPECT_DOUBLE_EQ(h.p50(), 42.0);
    EXPECT_DOUBLE_EQ(h.p90(), 42.0);
    EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(TelemetryQuantiles, HeavyTailSeparatesBodyFromTail) {
    Histogram h;
    for (int i = 0; i < 99; ++i) h.record(10.0);
    h.record(10000.0);
    // The body sits in the [8, 16) bucket: the estimate stays inside
    // that bucket (the documented guarantee), far from the tail.
    EXPECT_GE(h.p50(), 10.0);
    EXPECT_LT(h.p50(), 16.0);
    EXPECT_GE(h.p90(), 10.0);
    EXPECT_LT(h.p90(), 16.0);
    EXPECT_GT(h.p99(), 100.0);  // the tail sample dominates p99
    EXPECT_EQ(h.count(), 100);
}

TEST(TelemetryQuantiles, EmptyHistogramIsZero) {
    Histogram h;
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(TelemetryQuantiles, ConcurrentRecordersLoseNothing) {
    Histogram h;
    constexpr int kThreads = 8, kPerThread = 20000;
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<double>(1 + i % 100));
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    // Every thread records the same multiset, so the exact sum is known.
    const double perThread = 20000.0 / 100.0 * (100.0 * 101.0 / 2.0);
    EXPECT_DOUBLE_EQ(h.sum(), kThreads * perThread);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(TelemetryQuantiles, RegistryConcurrentLazyCreationIsExact) {
    MetricRegistry reg;
    constexpr int kThreads = 8, kPerThread = 5000;
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&reg] {
            for (int i = 0; i < kPerThread; ++i) {
                reg.counter("shared.hits").add(1);
                reg.histogram("shared.lat_us").record(i % 7 + 1);
            }
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(reg.counterValue("shared.hits"), kThreads * kPerThread);
    EXPECT_EQ(reg.histogram("shared.lat_us").count(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------

TEST(TelemetryPrometheus, NameSanitization) {
    EXPECT_EQ(obs::prometheusName("service.cache.hits"), "service_cache_hits");
    EXPECT_EQ(obs::prometheusName("a-b c/d"), "a_b_c_d");
    EXPECT_EQ(obs::prometheusName("ok_name:x9"), "ok_name:x9");
}

bool validMetricLine(const std::string& line) {
    // <name>{labels} <value> — name restricted to the Prometheus
    // charset, value parseable as a double.
    size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
            line[i] == '_' || line[i] == ':'))
        ++i;
    if (i == 0) return false;
    if (i < line.size() && line[i] == '{') {
        const size_t close = line.find('}', i);
        if (close == std::string::npos) return false;
        i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') return false;
    try {
        (void)std::stod(line.substr(i + 1));
    } catch (...) {
        return false;
    }
    return true;
}

TEST(TelemetryPrometheus, ExpositionFormatIsValid) {
    MetricRegistry reg;
    reg.counter("service.cache.hits").add(3);
    reg.gauge("service.queue_depth").set(2);
    for (int i = 1; i <= 100; ++i) reg.histogram("stage.parse_us").record(i);

    const std::string text = obs::renderPrometheus(reg, "phpf");
    EXPECT_NE(text.find("# TYPE phpf_service_cache_hits_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_service_cache_hits_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE phpf_service_queue_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE phpf_stage_parse_us summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us_sum 5050\n"), std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us_count 100\n"), std::string::npos);

    // Every line is either a comment or a well-formed sample, and the
    // exposition ends with a newline (required by the format).
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    std::istringstream in(text);
    std::string line;
    int samples = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        EXPECT_TRUE(validMetricLine(line)) << "bad sample line: " << line;
        ++samples;
    }
    EXPECT_GE(samples, 7);  // counter + gauge + 3 quantiles + sum + count
}

TEST(TelemetryPrometheus, EmptyRegistryRendersEmpty) {
    MetricRegistry reg;
    EXPECT_TRUE(obs::renderPrometheus(reg).empty());
}

TEST(TelemetryPrometheus, HelpLinesComeFromTheDescriptionRegistry) {
    MetricRegistry reg;
    reg.counter("service.cache.hits").add(1);
    const std::string text = obs::renderPrometheus(reg, "phpf");
    // A described metric gets its # HELP line right before its # TYPE.
    const std::string help = obs::metricDescription("service.cache.hits");
    ASSERT_FALSE(help.empty());
    const size_t helpAt =
        text.find("# HELP phpf_service_cache_hits_total " + help);
    const size_t typeAt =
        text.find("# TYPE phpf_service_cache_hits_total counter");
    ASSERT_NE(helpAt, std::string::npos) << text;
    ASSERT_NE(typeAt, std::string::npos);
    EXPECT_LT(helpAt, typeAt);

    // An undescribed metric renders without a HELP line, never a bogus
    // one.
    MetricRegistry other;
    other.counter("totally.made.up").add(1);
    EXPECT_EQ(obs::renderPrometheus(other, "phpf").find("# HELP"),
              std::string::npos);

    // describeMetric extends the registry at runtime.
    obs::describeMetric("totally.made.up", "a test metric");
    EXPECT_NE(obs::renderPrometheus(other, "phpf")
                  .find("# HELP phpf_totally_made_up_total a test metric"),
              std::string::npos);
}

TEST(TelemetryPrometheus, HelpAndLabelEscaping) {
    // HELP text escapes backslash and newline (the format's two
    // specials for comment lines).
    EXPECT_EQ(obs::prometheusHelpText("a\\b\nc"), "a\\\\b\\nc");
    // Label values additionally escape the double quote.
    EXPECT_EQ(obs::prometheusLabelValue("w\"1\"\\x\ny"),
              "w\\\"1\\\"\\\\x\\ny");
    EXPECT_EQ(obs::prometheusLabelValue("plain-worker:8042"),
              "plain-worker:8042");
}

// ---------------------------------------------------------------------
// Histogram restore
// ---------------------------------------------------------------------

TEST(TelemetryHistogram, RestoreFromJsonShapeMatchesOriginal) {
    // restore() consumes exactly what toJson emits (count/sum/min/max +
    // trimmed log2 buckets): a scrape-restore round trip must preserve
    // the distribution, including quantile estimates.
    MetricRegistry reg;
    Histogram& orig = reg.histogram("trip.us");
    for (int v = 1; v <= 1000; ++v) orig.record(v);
    const Json doc = reg.toJson();
    const Json& h = doc.at("histograms").at("trip.us");
    std::vector<std::int64_t> buckets;
    for (const Json& b : h.at("log2_buckets").items())
        buckets.push_back(b.intValue());

    Histogram back;
    back.restore(h.at("count").intValue(), h.at("sum").numberValue(),
                 h.at("min").numberValue(), h.at("max").numberValue(),
                 buckets);
    EXPECT_EQ(back.count(), orig.count());
    EXPECT_DOUBLE_EQ(back.sum(), orig.sum());
    EXPECT_DOUBLE_EQ(back.min(), orig.min());
    EXPECT_DOUBLE_EQ(back.max(), orig.max());
    EXPECT_DOUBLE_EQ(back.p50(), orig.p50());
    EXPECT_DOUBLE_EQ(back.p99(), orig.p99());
}

// ---------------------------------------------------------------------
// ConcurrentTracer
// ---------------------------------------------------------------------

TEST(TelemetryTracer, SameThreadSpansNestById) {
    ConcurrentTracer t;
    auto outer = t.begin("outer", "x");
    auto inner = t.begin("inner", "x");
    t.end(inner);
    t.end(outer);
    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const auto& o = spans[0].name == "outer" ? spans[0] : spans[1];
    const auto& i = spans[0].name == "outer" ? spans[1] : spans[0];
    EXPECT_EQ(o.parent, 0u);
    EXPECT_EQ(i.parent, o.id);
    EXPECT_TRUE(o.closed());
    EXPECT_TRUE(i.closed());
    EXPECT_GE(o.startNs + o.durNs, i.startNs + i.durNs);
}

TEST(TelemetryTracer, DisabledTracerRecordsNothing) {
    ConcurrentTracer t(/*enabled=*/false);
    auto h = t.begin("nope");
    EXPECT_EQ(h.id, 0u);
    t.end(h);
    EXPECT_EQ(t.spanCount(), 0u);
    EXPECT_EQ(t.addCompleteSpan("also-nope", "", 0, 1), 0u);
}

TEST(TelemetryTracer, ContextScopeParentsPoolWorkUnderTheRequest) {
    ConcurrentTracer t;
    TaskPool pool(2, "ctx-test");
    std::uint64_t rootId = 0;
    {
        ConcurrentScopedSpan root(t, "request", "service");
        rootId = root.context().spanId;
        ASSERT_NE(rootId, 0u);
        const SpanContext ctx = root.context();
        std::atomic<int> done{0};
        for (int k = 0; k < 2; ++k)
            pool.post([&t, ctx, &done] {
                ContextScope adopt(t, ctx);
                ConcurrentScopedSpan work(t, "work", "service");
                done.fetch_add(1);
            });
        pool.drain();
        EXPECT_EQ(done.load(), 2);
    }
    const auto spans = t.snapshot();
    int workers = 0;
    const int mainTid = thread_registry::currentTid();
    for (const auto& s : spans) {
        if (s.name != "work") continue;
        ++workers;
        EXPECT_EQ(s.parent, rootId);
        EXPECT_NE(s.tid, mainTid);
        EXPECT_TRUE(s.closed());
    }
    EXPECT_EQ(workers, 2);
}

TEST(TelemetryTracer, CrossThreadEndClosesTheSpan) {
    ConcurrentTracer t;
    auto h = t.begin("handoff", "service");
    std::thread closer([&t, h] { t.end(h); });
    closer.join();
    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_TRUE(spans[0].closed());
}

TEST(TelemetryTracer, ImportTracerReconstructsParentsFromDepth) {
    obs::Tracer src;
    const int a = src.beginSpan("pass-a", "pass");
    const int b = src.beginSpan("pass-a.child", "pass");
    src.endSpan(b);
    src.endSpan(a);
    const int c = src.beginSpan("pass-b", "pass");
    src.endSpan(c);

    ConcurrentTracer dst;
    std::uint64_t rootId = 0;
    {
        ConcurrentScopedSpan root(dst, "compile", "service");
        rootId = root.context().spanId;
        dst.importTracer(src, root.context(), /*offsetNs=*/1000);
    }
    std::map<std::string, ConcurrentSpan> byName;
    for (const auto& s : dst.snapshot()) byName[s.name] = s;
    ASSERT_EQ(byName.count("pass-a"), 1u);
    ASSERT_EQ(byName.count("pass-a.child"), 1u);
    ASSERT_EQ(byName.count("pass-b"), 1u);
    EXPECT_EQ(byName["pass-a"].parent, rootId);
    EXPECT_EQ(byName["pass-b"].parent, rootId);
    EXPECT_EQ(byName["pass-a.child"].parent, byName["pass-a"].id);
    // The offset shifted the imported timeline.
    EXPECT_GE(byName["pass-a"].startNs, 1000);
}

TEST(TelemetryTracer, SnapshotMergesShardsSortedByStart) {
    ConcurrentTracer t;
    std::vector<std::thread> ts;
    for (int k = 0; k < 4; ++k)
        ts.emplace_back([&t, k] {
            for (int i = 0; i < 50; ++i) {
                auto h = t.begin(("w" + std::to_string(k)).c_str(), "x");
                t.end(h);
            }
        });
    for (auto& th : ts) th.join();
    const auto spans = t.snapshot();
    EXPECT_EQ(spans.size(), 200u);
    EXPECT_GE(t.threadCount(), 4);
    for (size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].startNs, spans[i].startNs);
    std::set<std::uint64_t> ids;
    for (const auto& s : spans) ids.insert(s.id);
    EXPECT_EQ(ids.size(), spans.size());  // ids unique across shards
}

// ---------------------------------------------------------------------
// Simulator telemetry
// ---------------------------------------------------------------------

TEST(TelemetrySimSpans, PhaseHistogramsFillWhenTelemetryIsSet) {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    MetricRegistry reg;
    SimulationRequest req;
    req.metrics = &reg;
    auto sim = c.simulate(req);
    EXPECT_GT(reg.histogram("sim.phase.eval_us").count(), 0);
    EXPECT_GT(reg.histogram("sim.phase.merge_us").count(), 0);
}

// ---------------------------------------------------------------------
// Chrome trace export of the concurrent tracer
// ---------------------------------------------------------------------

TEST(TelemetryChromeTrace, EmitsNamedPerThreadRowsAndSpanIds) {
    ConcurrentTracer t;
    std::uint64_t rootId = 0;
    {
        ConcurrentScopedSpan root(t, "root", "x");
        rootId = root.context().spanId;
        const SpanContext ctx = root.context();
        std::thread w([&t, ctx] {
            thread_registry::setCurrentName("trace-test-worker");
            ContextScope adopt(t, ctx);
            ConcurrentScopedSpan s(t, "child", "x");
        });
        w.join();
    }
    const Json doc = buildChromeTrace(t, "test-proc");
    const Json& events = doc.at("traceEvents");
    std::set<std::string> threadNames;
    bool sawChildWithParent = false;
    for (const Json& e : events.items()) {
        if (e.at("ph").stringValue() == "M" &&
            e.at("name").stringValue() == "thread_name")
            threadNames.insert(e.at("args").at("name").stringValue());
        if (e.at("ph").stringValue() == "X" &&
            e.at("name").stringValue() == "child") {
            EXPECT_EQ(static_cast<std::uint64_t>(
                          e.at("args").at("parent_id").intValue()),
                      rootId);
            sawChildWithParent = true;
        }
    }
    EXPECT_TRUE(sawChildWithParent);
    EXPECT_EQ(threadNames.count("trace-test-worker"), 1u);
    EXPECT_GE(threadNames.size(), 2u);  // main + the worker
}

// ---------------------------------------------------------------------
// Thread registry + pool naming
// ---------------------------------------------------------------------

TEST(TelemetryThreadRegistry, TidIsStableAndNamesResolve) {
    const int tid = thread_registry::currentTid();
    EXPECT_EQ(thread_registry::currentTid(), tid);
    thread_registry::setCurrentName("telemetry-test-main");
    EXPECT_EQ(thread_registry::currentName(), "telemetry-test-main");
    EXPECT_EQ(thread_registry::nameOf(tid), "telemetry-test-main");
    EXPECT_EQ(thread_registry::nameOf(999999), "thread-999999");
    EXPECT_GE(thread_registry::count(), 1);
}

TEST(TelemetryThreadRegistry, TaskPoolWorkersRegisterPrefixedNames) {
    TaskPool pool(2, "tp-name-test");
    std::mutex mu;
    std::set<std::string> seen;
    for (int i = 0; i < 8; ++i)
        pool.post([&] {
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(thread_registry::currentName());
        });
    pool.drain();
    for (const auto& n : seen)
        EXPECT_EQ(n.rfind("tp-name-test-", 0), 0u) << n;
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), 2u);
}

// ---------------------------------------------------------------------
// HTTP exposition endpoint
// ---------------------------------------------------------------------

#if PHPF_TEST_SOCKETS

/// Send one raw request and return everything the server answers.
std::string httpSend(int port, const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
        ::close(fd);
        return "";
    }
    (void)::send(fd, request.data(), request.size(), 0);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return out;
}

std::string httpGet(int port, const std::string& path) {
    return httpSend(port, "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n");
}

TEST(TelemetryHttp, ServesMetricsHealthzAndReport) {
    MetricRegistry reg;
    reg.counter("http.test.hits").add(7);
    reg.histogram("http.test.lat_us").record(10);

    service::MetricsHttpServer server(0);  // ephemeral
    server.addRegistry("phpf", &reg);
    server.setHealthProvider([] {
        Json h = Json::object();
        h.set("queue_depth", 0);
        return h;
    });
    server.setReportProvider([] {
        Json r = Json::object();
        r.set("schema", "phpf.test_report");
        return r;
    });
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_GT(server.port(), 0);

    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(metrics.find("phpf_http_test_hits_total 7"), std::string::npos);
    EXPECT_NE(metrics.find("phpf_http_test_lat_us{quantile=\"0.9\"}"),
              std::string::npos);

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(health.find("\"queue_depth\": 0"), std::string::npos);
    EXPECT_NE(health.find("uptime_sec"), std::string::npos);

    const std::string report = httpGet(server.port(), "/report");
    EXPECT_NE(report.find("phpf.test_report"), std::string::npos);

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    EXPECT_FALSE(server.quitRequested());
    const std::string quit = httpGet(server.port(), "/quitquitquit");
    EXPECT_NE(quit.find("200 OK"), std::string::npos);
    EXPECT_TRUE(server.quitRequested());
    EXPECT_GE(server.requestsServed(), 5);
    server.stop();
    EXPECT_FALSE(server.running());
    server.stop();  // idempotent
}

TEST(TelemetryHttp, ReportWithoutProviderIs503) {
    service::MetricsHttpServer server(0);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    const std::string report = httpGet(server.port(), "/report");
    EXPECT_NE(report.find("503"), std::string::npos);
    server.stop();
}

TEST(TelemetryHttp, ScrapeWhileWritersAreHotIsConsistent) {
    MetricRegistry reg;
    service::MetricsHttpServer server(0);
    server.addRegistry("phpf", &reg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        auto& c = reg.counter("hot.count");
        auto& h = reg.histogram("hot.lat_us");
        while (!stop.load()) {
            c.add(1);
            h.record(5);
        }
    });
    for (int i = 0; i < 10; ++i) {
        const std::string body = httpGet(server.port(), "/metrics");
        EXPECT_NE(body.find("200 OK"), std::string::npos);
    }
    stop.store(true);
    writer.join();
    server.stop();
}

// The server faces whatever connects to the port, so its input bounds
// hold with no route that takes a body at all.
TEST(HttpLimits, OversizedBodyRejectedWith413) {
    service::MetricsHttpServer server(0);
    service::HttpLimits limits;
    limits.maxBodyBytes = 1024;
    server.setLimits(limits);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    const std::string body(4096, 'x');
    const std::string reply = httpSend(
        server.port(), "POST /metrics HTTP/1.1\r\nHost: l\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body);
    EXPECT_EQ(reply.rfind("HTTP/1.1 413 ", 0), 0u) << reply;
    EXPECT_GE(server.requestsRejected(), 1);
    server.stop();
}

TEST(HttpLimits, OversizedHeaderRejectedWith431) {
    service::MetricsHttpServer server(0);
    service::HttpLimits limits;
    limits.maxHeaderBytes = 512;
    server.setLimits(limits);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    const std::string reply =
        httpGet(server.port(), "/" + std::string(2048, 'a'));
    EXPECT_EQ(reply.rfind("HTTP/1.1 431 ", 0), 0u) << reply;
    EXPECT_GE(server.requestsRejected(), 1);
    server.stop();
}

#endif  // PHPF_TEST_SOCKETS

}  // namespace
}  // namespace phpf
