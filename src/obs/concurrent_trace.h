#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "support/thread_registry.h"

namespace phpf::obs {

/// One span recorded by a ConcurrentTracer: a TraceSpan plus identity
/// (span id / parent id) and the recording thread's registry tid.
/// Times are nanoseconds on the monotonic clock relative to the
/// tracer's epoch, exactly like TraceSpan.
struct ConcurrentSpan {
    std::string name;
    std::string category;
    std::int64_t startNs = 0;
    std::int64_t durNs = -1;  ///< -1 while still open
    std::uint64_t id = 0;     ///< unique within the tracer, never 0
    std::uint64_t parent = 0; ///< 0 = root
    int tid = 0;              ///< thread_registry tid of the recorder

    [[nodiscard]] bool closed() const { return durNs >= 0; }
};

/// A propagatable point in the span tree: "parent spans created under
/// this context here". Captured on one thread (usually where a request
/// root span was opened) and adopted on another (a pool worker) via
/// ContextScope, so cross-thread work parents correctly under its
/// request instead of floating as a root.
struct SpanContext {
    std::uint64_t spanId = 0;  ///< 0 = no parent (root)
};

/// Thread-safe span recorder for the concurrent era: every recording
/// thread appends to its own sharded buffer (one uncontended mutex per
/// thread), spans are tid-stamped via the process thread registry, and
/// snapshot() merges the shards at export time. Parenting is implicit
/// within a thread (spans nest under the thread's innermost open span)
/// and explicit across threads (SpanContext + ContextScope).
///
/// Disabled tracers cost a branch per begin/end — instrumentation can
/// stay compiled in. Span mutation always happens under the owning
/// buffer's mutex, so end() may run on a different thread than begin()
/// (a request span opened on the caller and closed by the worker that
/// finished the job).
class ConcurrentTracer {
public:
    explicit ConcurrentTracer(bool enabled = true);
    ~ConcurrentTracer();

    ConcurrentTracer(const ConcurrentTracer&) = delete;
    ConcurrentTracer& operator=(const ConcurrentTracer&) = delete;

    [[nodiscard]] bool enabled() const { return enabled_; }
    void setEnabled(bool e) { enabled_ = e; }

    /// Nanoseconds since tracer construction (monotonic).
    [[nodiscard]] std::int64_t nowNs() const;

    /// Handle of one begun span; pass back to end(). Empty (id 0) when
    /// the tracer is disabled.
    struct Handle {
        void* buf = nullptr;
        int idx = -1;
        std::uint64_t id = 0;
    };

    /// Open a span on the calling thread. Parent = the thread's
    /// innermost open span, else its adopted ContextScope context, else
    /// root.
    Handle begin(const char* name, const char* category = "");
    /// Close a span (idempotent; any thread).
    void end(const Handle& h);

    /// Record an already-measured interval on the calling thread's
    /// buffer under `parent` (or, when `parent.spanId == 0`, under the
    /// thread's current context). Returns the span's id so callers can
    /// parent further spans under it.
    std::uint64_t addCompleteSpan(const char* name, const char* category,
                                  std::int64_t startNs, std::int64_t durNs,
                                  SpanContext parent = {});

    /// The calling thread's current context: innermost open span, else
    /// the adopted ContextScope context, else none.
    [[nodiscard]] SpanContext currentContext();

    /// Import a single-threaded Tracer's spans (e.g. a compile
    /// session's per-pass spans) as complete spans on the calling
    /// thread, reconstructing parent links from their nesting depths,
    /// rooted under `parent`. `offsetNs` maps the source tracer's
    /// timeline onto this one (source start + offset = this tracer's
    /// time). Open source spans are closed at the source's now.
    void importTracer(const Tracer& t, SpanContext parent,
                      std::int64_t offsetNs);

    /// Merged copy of every thread's spans, ordered by (startNs, id).
    [[nodiscard]] std::vector<ConcurrentSpan> snapshot() const;

    /// Distinct thread buffers that recorded at least one span.
    [[nodiscard]] int threadCount() const;

    /// Total spans across all buffers.
    [[nodiscard]] std::size_t spanCount() const;

    /// Drop all spans (open handles become harmless no-ops on end()).
    void clear();

private:
    friend class ContextScope;

    struct ThreadBuf {
        std::mutex mu;
        int tid = 0;
        std::vector<ConcurrentSpan> spans;
        /// Innermost-last open span ids.
        std::vector<std::uint64_t> openIds;
        /// Adopted cross-thread contexts (ContextScope nesting).
        std::vector<std::uint64_t> adopted;
    };

    ThreadBuf& localBuf();

    bool enabled_;
    std::uint64_t traceId_;  ///< process-unique instance id
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> nextSpanId_{1};
    mutable std::mutex bufsMu_;
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII adoption of a cross-thread parent context: spans the calling
/// thread creates while the scope is alive parent under `ctx` (unless
/// nested under a newer open span). Construct and destroy on the same
/// thread.
class ContextScope {
public:
    ContextScope(ConcurrentTracer& t, SpanContext ctx);
    ~ContextScope();

    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

private:
    ConcurrentTracer& tracer_;
    bool pushed_;
};

/// RAII span on a ConcurrentTracer: opens on construction, closes on
/// scope exit. Null-tracer safe.
class ConcurrentScopedSpan {
public:
    ConcurrentScopedSpan(ConcurrentTracer* t, const char* name,
                         const char* category = "")
        : tracer_(t) {
        if (t != nullptr) handle_ = t->begin(name, category);
    }
    ConcurrentScopedSpan(ConcurrentTracer& t, const char* name,
                         const char* category = "")
        : ConcurrentScopedSpan(&t, name, category) {}
    ~ConcurrentScopedSpan() { close(); }

    ConcurrentScopedSpan(const ConcurrentScopedSpan&) = delete;
    ConcurrentScopedSpan& operator=(const ConcurrentScopedSpan&) = delete;

    /// Context of this span, for propagation into workers.
    [[nodiscard]] SpanContext context() const { return {handle_.id}; }

    void close() {
        if (tracer_ != nullptr && handle_.id != 0) tracer_->end(handle_);
        handle_ = {};
    }

private:
    ConcurrentTracer* tracer_;
    ConcurrentTracer::Handle handle_{};
};

}  // namespace phpf::obs
