#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace phpf::service {

/// Per-connection hardening knobs. A slow or malicious client must
/// never wedge a serving thread: reads and writes carry socket
/// deadlines, and oversized requests are rejected before they are
/// buffered.
struct HttpLimits {
    /// Socket receive deadline per read() call; a client that connects
    /// and trickles (or sends nothing) is cut off, not waited on.
    int recvTimeoutMs = 5000;
    /// Socket send deadline per write() call (peer stops reading).
    int sendTimeoutMs = 5000;
    /// Maximum accepted request body (Content-Length and actual bytes);
    /// beyond it the server answers 413 and closes.
    std::size_t maxBodyBytes = 4u << 20;  // 4 MiB
    /// Maximum accepted request-line + header bytes (431 beyond).
    std::size_t maxHeaderBytes = 16u << 10;
};

/// Live telemetry over HTTP with zero external dependencies: a plain
/// POSIX socket and one serving thread that accepts and answers
/// connections in turn.
///
/// Endpoints:
///   GET /metrics      Prometheus text exposition of every attached
///                     registry (counters as *_total, histograms as
///                     summaries with p50/p90/p99 quantile samples)
///   GET /healthz      JSON liveness: status, uptime, and whatever the
///                     health provider adds (queue depth, workers)
///   GET /report       JSON from the report provider (a run report);
///                     503 when no provider is attached
///   GET /quitquitquit Acknowledges and sets quitRequested() — the
///                     owner polls it for a clean scripted shutdown
///                     (CI smoke tests curl it instead of kill -9)
///
/// Any other path is 404, any other method 405.
///
/// Attach registries and providers before start(); the server never
/// mutates registries (they are internally thread-safe). Requests are
/// parsed fully (request line, headers, Content-Length body) under
/// HttpLimits: read/write socket deadlines and bounded header/body
/// sizes, so one wedged client holds the server for at most one
/// timeout.
class MetricsHttpServer {
public:
    /// `port` 0 binds an ephemeral port (resolved via port() after
    /// start) — tests use this to avoid collisions. Binds loopback
    /// only: this is an operator endpoint, not a public service.
    explicit MetricsHttpServer(int port = 0);
    ~MetricsHttpServer();  ///< stop()s

    MetricsHttpServer(const MetricsHttpServer&) = delete;
    MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

    /// Add a registry scraped by /metrics, its metric names prefixed
    /// with `prefix` ("phpf" -> phpf_service_requests_total).
    void addRegistry(const std::string& prefix, const obs::MetricRegistry* reg);

    /// Extra key/values merged into /healthz (called per request from
    /// the serving thread; must be thread-safe).
    void setHealthProvider(std::function<obs::Json()> provider);
    /// Body of /report (called per request from the serving thread).
    void setReportProvider(std::function<obs::Json()> provider);

    /// Per-connection limits; call before start().
    void setLimits(HttpLimits limits) { limits_ = limits; }
    [[nodiscard]] const HttpLimits& limits() const { return limits_; }

    /// Bind + listen + spawn the serving thread. False (with *err set)
    /// when the port cannot be bound.
    bool start(std::string* err = nullptr);
    /// Close the listen socket and join the serving thread. Idempotent.
    void stop();

    [[nodiscard]] bool running() const {
        return running_.load(std::memory_order_acquire);
    }
    /// The bound port (the resolved one when constructed with 0).
    [[nodiscard]] int port() const { return port_; }
    [[nodiscard]] std::int64_t requestsServed() const {
        return requests_.load(std::memory_order_relaxed);
    }
    /// Requests rejected by HttpLimits (timeout, oversized header or
    /// body, malformed request line).
    [[nodiscard]] std::int64_t requestsRejected() const {
        return rejected_.load(std::memory_order_relaxed);
    }
    /// True once /quitquitquit has been hit.
    [[nodiscard]] bool quitRequested() const {
        return quit_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::string buildMetricsBody() const;

private:
    void serveLoop();
    void handleConnection(int fd);
    [[nodiscard]] std::string buildHealthBody() const;

    int port_;
    // Written by stop() while serveLoop() is blocked in accept() on it.
    std::atomic<int> listenFd_{-1};
    HttpLimits limits_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> quit_{false};
    std::atomic<std::int64_t> requests_{0};
    std::atomic<std::int64_t> rejected_{0};
    std::vector<std::pair<std::string, const obs::MetricRegistry*>> registries_;
    std::function<obs::Json()> healthProvider_;
    std::function<obs::Json()> reportProvider_;
    std::chrono::steady_clock::time_point started_;
    std::thread serveThread_;  ///< last: it uses every member above
};

}  // namespace phpf::service
