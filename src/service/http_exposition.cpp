#include "service/http_exposition.h"

#include <cerrno>
#include <cstring>

#include "obs/prometheus.h"
#include "support/thread_registry.h"

#if defined(__unix__) || defined(__APPLE__)
#define PHPF_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#else
#define PHPF_HAVE_SOCKETS 0
#endif

namespace phpf::service {

namespace {

#if PHPF_HAVE_SOCKETS

void setSocketDeadlines(int fd, const HttpLimits& limits) {
    const auto toTv = [](int ms) {
        timeval tv{};
        tv.tv_sec = ms / 1000;
        tv.tv_usec = (ms % 1000) * 1000;
        return tv;
    };
    if (limits.recvTimeoutMs > 0) {
        const timeval tv = toTv(limits.recvTimeoutMs);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    if (limits.sendTimeoutMs > 0) {
        const timeval tv = toTv(limits.sendTimeoutMs);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
}

/// True when all bytes were written before the send deadline cut in.
bool writeAll(int fd, const char* data, size_t n) {
    size_t off = 0;
    while (off < n) {
        const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w <= 0) return false;  // peer gone or send deadline hit
        off += static_cast<size_t>(w);
    }
    return true;
}

void respond(int fd, int code, const char* reason, const char* contentType,
             const std::string& body) {
    std::string head = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                       "\r\nContent-Type: " + contentType +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n";
    if (writeAll(fd, head.data(), head.size()))
        writeAll(fd, body.data(), body.size());
}

const char* reasonOf(int code) {
    switch (code) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 408: return "Request Timeout";
        case 413: return "Payload Too Large";
        case 431: return "Request Header Fields Too Large";
        case 503: return "Service Unavailable";
        default: return "?";
    }
}

/// Case-insensitive header lookup in the raw header block; returns the
/// trimmed value of the first match or "".
std::string headerValue(const std::string& head, const std::string& name) {
    std::string lower;
    lower.reserve(head.size());
    for (char c : head)
        lower.push_back(static_cast<char>(
            c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
    std::string needle = "\r\n";
    for (char c : name)
        needle.push_back(static_cast<char>(
            c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
    needle.push_back(':');
    const size_t at = lower.find(needle);
    if (at == std::string::npos) return "";
    const size_t vb = at + needle.size();
    size_t ve = head.find("\r\n", vb);
    if (ve == std::string::npos) ve = head.size();
    std::string v = head.substr(vb, ve - vb);
    while (!v.empty() && (v.front() == ' ' || v.front() == '\t'))
        v.erase(v.begin());
    while (!v.empty() && (v.back() == ' ' || v.back() == '\t')) v.pop_back();
    return v;
}

#endif  // PHPF_HAVE_SOCKETS

}  // namespace

MetricsHttpServer::MetricsHttpServer(int port) : port_(port) {}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::addRegistry(const std::string& prefix,
                                    const obs::MetricRegistry* reg) {
    if (reg != nullptr) registries_.emplace_back(prefix, reg);
}

void MetricsHttpServer::setHealthProvider(std::function<obs::Json()> provider) {
    healthProvider_ = std::move(provider);
}

void MetricsHttpServer::setReportProvider(std::function<obs::Json()> provider) {
    reportProvider_ = std::move(provider);
}

bool MetricsHttpServer::start(std::string* err) {
#if !PHPF_HAVE_SOCKETS
    if (err != nullptr) *err = "metrics exposition: no socket support";
    return false;
#else
    if (running()) return true;
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (err != nullptr) *err = "socket(): " + std::string(strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
        if (err != nullptr)
            *err = "bind(" + std::to_string(port_) +
                   "): " + std::string(strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::listen(listenFd_, 64) < 0) {
        if (err != nullptr) *err = "listen(): " + std::string(strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (port_ == 0) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0)
            port_ = static_cast<int>(ntohs(bound.sin_port));
    }
    started_ = std::chrono::steady_clock::now();
    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    serveThread_ = std::thread([this] {
        thread_registry::setCurrentName("http-serve");
        serveLoop();
    });
    return true;
#endif
}

void MetricsHttpServer::stop() {
#if PHPF_HAVE_SOCKETS
    if (!running()) return;
    stopping_.store(true, std::memory_order_release);
    // Unblock the accept(): shutdown makes it return with an error on
    // Linux; close() finishes the job.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    listenFd_ = -1;
    if (serveThread_.joinable()) serveThread_.join();
    running_.store(false, std::memory_order_release);
#endif
}

void MetricsHttpServer::serveLoop() {
#if PHPF_HAVE_SOCKETS
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_acquire)) return;
            if (errno == EINTR) continue;
            return;  // listen socket gone
        }
        handleConnection(fd);
        ::close(fd);
    }
#endif
}

std::string MetricsHttpServer::buildMetricsBody() const {
    std::string body;
    for (const auto& [prefix, reg] : registries_)
        body += obs::renderPrometheus(*reg, prefix);
    return body;
}

std::string MetricsHttpServer::buildHealthBody() const {
    obs::Json health =
        healthProvider_ ? healthProvider_() : obs::Json::object();
    health.set("status", "ok");
    health.set("uptime_sec",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             started_)
                   .count());
    return health.dump();
}

void MetricsHttpServer::handleConnection(int fd) {
#if PHPF_HAVE_SOCKETS
    setSocketDeadlines(fd, limits_);

    // --- read the request line + headers (bounded) -------------------
    std::string head;
    size_t headEnd = std::string::npos;
    std::string overflow;  ///< body bytes read past the header terminator
    char buf[4096];
    while (headEnd == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            // Peer vanished or trickled past the receive deadline; a
            // request that never arrives gets no response.
            rejected_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        head.append(buf, static_cast<size_t>(n));
        headEnd = head.find("\r\n\r\n");
        if (headEnd == std::string::npos &&
            head.size() > limits_.maxHeaderBytes) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            respond(fd, 431, reasonOf(431), "text/plain",
                    "header too large\n");
            return;
        }
    }
    if (headEnd > limits_.maxHeaderBytes) {
        // The terminator arrived, but past the bound (a fast client can
        // deliver the whole oversized header in one read).
        rejected_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, 431, reasonOf(431), "text/plain", "header too large\n");
        return;
    }
    overflow = head.substr(headEnd + 4);
    head.resize(headEnd + 2);  // keep a trailing CRLF for headerValue()

    const size_t sp1 = head.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : head.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, 400, reasonOf(400), "text/plain", "bad request\n");
        return;
    }
    const std::string method = head.substr(0, sp1);
    const std::string path = head.substr(sp1 + 1, sp2 - sp1 - 1);

    // --- read the body (Content-Length, bounded) ---------------------
    std::size_t contentLength = 0;
    const std::string cl = headerValue(head, "Content-Length");
    if (!cl.empty()) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(cl.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            respond(fd, 400, reasonOf(400), "text/plain",
                    "bad Content-Length\n");
            return;
        }
        contentLength = static_cast<std::size_t>(v);
    }
    if (contentLength > limits_.maxBodyBytes ||
        overflow.size() > limits_.maxBodyBytes) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, 413, reasonOf(413), "text/plain", "body too large\n");
        return;
    }
    // Drain the body (no route takes one) so the answer is not a reset.
    std::size_t bodyBytes = overflow.size();
    while (bodyBytes < contentLength) {
        const size_t want = std::min(sizeof(buf), contentLength - bodyBytes);
        const ssize_t n = ::recv(fd, buf, want, 0);
        if (n <= 0) {
            // Body never completed within the receive deadline.
            rejected_.fetch_add(1, std::memory_order_relaxed);
            respond(fd, 408, reasonOf(408), "text/plain", "body timeout\n");
            return;
        }
        bodyBytes += static_cast<size_t>(n);
    }

    requests_.fetch_add(1, std::memory_order_relaxed);

    if (method == "GET") {
        if (path == "/metrics") {
            respond(fd, 200, reasonOf(200), "text/plain; version=0.0.4",
                    buildMetricsBody());
            return;
        }
        if (path == "/healthz") {
            respond(fd, 200, reasonOf(200), "application/json",
                    buildHealthBody());
            return;
        }
        if (path == "/report") {
            if (!reportProvider_) {
                respond(fd, 503, reasonOf(503), "text/plain",
                        "no report provider\n");
                return;
            }
            respond(fd, 200, reasonOf(200), "application/json",
                    reportProvider_().dump());
            return;
        }
        if (path == "/quitquitquit") {
            quit_.store(true, std::memory_order_release);
            respond(fd, 200, reasonOf(200), "text/plain", "shutting down\n");
            return;
        }
    }

    if (method != "GET") {
        respond(fd, 405, reasonOf(405), "text/plain", "GET only\n");
        return;
    }
    respond(fd, 404, reasonOf(404), "text/plain",
            "try /metrics /healthz /report\n");
#else
    (void)fd;
#endif
}

}  // namespace phpf::service
