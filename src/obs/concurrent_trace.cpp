#include "obs/concurrent_trace.h"

#include <algorithm>
#include <unordered_set>

namespace phpf::obs {

namespace {

/// Live-tracer registry: localBuf() caches ThreadBuf pointers in
/// thread_local storage keyed by tracer instance id; pruning stale
/// cache entries needs to know which ids still exist without touching
/// the (possibly freed) tracer.
std::mutex& liveMutex() {
    static std::mutex m;
    return m;
}
std::unordered_set<std::uint64_t>& liveIds() {
    static std::unordered_set<std::uint64_t> s;
    return s;
}
std::uint64_t registerTracer() {
    static std::atomic<std::uint64_t> next{1};
    const std::uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(liveMutex());
    liveIds().insert(id);
    return id;
}
void unregisterTracer(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(liveMutex());
    liveIds().erase(id);
}

struct CacheEntry {
    std::uint64_t traceId;
    void* buf;
};

}  // namespace

ConcurrentTracer::ConcurrentTracer(bool enabled)
    : enabled_(enabled),
      traceId_(registerTracer()),
      epoch_(std::chrono::steady_clock::now()) {}

ConcurrentTracer::~ConcurrentTracer() { unregisterTracer(traceId_); }

std::int64_t ConcurrentTracer::nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

ConcurrentTracer::ThreadBuf& ConcurrentTracer::localBuf() {
    thread_local std::vector<CacheEntry> cache;
    for (const CacheEntry& e : cache)
        if (e.traceId == traceId_) return *static_cast<ThreadBuf*>(e.buf);
    // Miss: create this thread's buffer for this tracer. Keep the cache
    // bounded by dropping entries whose tracer has since died (their
    // buffer pointers dangle, but we only ever compare their ids).
    if (cache.size() >= 16) {
        std::lock_guard<std::mutex> lock(liveMutex());
        const auto& live = liveIds();
        std::erase_if(cache, [&](const CacheEntry& e) {
            return live.find(e.traceId) == live.end();
        });
    }
    auto buf = std::make_unique<ThreadBuf>();
    buf->tid = thread_registry::currentTid();
    ThreadBuf* raw = buf.get();
    {
        std::lock_guard<std::mutex> lock(bufsMu_);
        bufs_.push_back(std::move(buf));
    }
    cache.push_back({traceId_, raw});
    return *raw;
}

ConcurrentTracer::Handle ConcurrentTracer::begin(const char* name,
                                                 const char* category) {
    if (!enabled_) return {};
    ThreadBuf& buf = localBuf();
    const std::uint64_t id = nextSpanId_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(buf.mu);
    ConcurrentSpan s;
    s.name = name;
    s.category = category;
    s.startNs = start;
    s.id = id;
    s.tid = buf.tid;
    if (!buf.openIds.empty())
        s.parent = buf.openIds.back();
    else if (!buf.adopted.empty())
        s.parent = buf.adopted.back();
    const int idx = static_cast<int>(buf.spans.size());
    buf.spans.push_back(std::move(s));
    buf.openIds.push_back(id);
    return {&buf, idx, id};
}

void ConcurrentTracer::end(const Handle& h) {
    if (h.id == 0 || h.buf == nullptr) return;
    ThreadBuf& buf = *static_cast<ThreadBuf*>(h.buf);
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(buf.mu);
    // Spans are only ever appended, so the handle's index still points
    // at its span unless clear() ran since begin(): then the index is
    // past the end or names a newer span, and the stale handle is a
    // no-op instead of corrupting another span.
    if (h.idx < 0 || h.idx >= static_cast<int>(buf.spans.size())) return;
    ConcurrentSpan& s = buf.spans[static_cast<size_t>(h.idx)];
    if (s.id != h.id || s.closed()) return;
    s.durNs = now - s.startNs;
    // Usually the innermost open span; a cross-thread end() may close
    // out of order, so search from the top.
    for (int i = static_cast<int>(buf.openIds.size()) - 1; i >= 0; --i) {
        if (buf.openIds[static_cast<size_t>(i)] == h.id) {
            buf.openIds.erase(buf.openIds.begin() + i);
            break;
        }
    }
}

std::uint64_t ConcurrentTracer::addCompleteSpan(const char* name,
                                                const char* category,
                                                std::int64_t startNs,
                                                std::int64_t durNs,
                                                SpanContext parent) {
    if (!enabled_) return 0;
    ThreadBuf& buf = localBuf();
    const std::uint64_t id = nextSpanId_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(buf.mu);
    ConcurrentSpan s;
    s.name = name;
    s.category = category;
    s.startNs = startNs;
    s.durNs = durNs;
    s.id = id;
    s.tid = buf.tid;
    if (parent.spanId != 0)
        s.parent = parent.spanId;
    else if (!buf.openIds.empty())
        s.parent = buf.openIds.back();
    else if (!buf.adopted.empty())
        s.parent = buf.adopted.back();
    buf.spans.push_back(std::move(s));
    return id;
}

SpanContext ConcurrentTracer::currentContext() {
    if (!enabled_) return {};
    ThreadBuf& buf = localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    if (!buf.openIds.empty()) return {buf.openIds.back()};
    if (!buf.adopted.empty()) return {buf.adopted.back()};
    return {};
}

void ConcurrentTracer::importTracer(const Tracer& t, SpanContext parent,
                                    std::int64_t offsetNs) {
    if (!enabled_) return;
    ThreadBuf& buf = localBuf();
    const std::int64_t srcNow = t.nowNs();
    // Depth-indexed stack of the ids assigned to the most recent
    // imported span at each nesting depth; a span at depth d parents
    // under the id at depth d-1 (or under `parent` at depth 0).
    std::vector<std::uint64_t> byDepth;
    std::lock_guard<std::mutex> lock(buf.mu);
    for (const TraceSpan& src : t.spans()) {
        const std::uint64_t id =
            nextSpanId_.fetch_add(1, std::memory_order_relaxed);
        ConcurrentSpan s;
        s.name = src.name;
        s.category = src.category;
        s.startNs = src.startNs + offsetNs;
        s.durNs = src.durNs >= 0 ? src.durNs : srcNow - src.startNs;
        s.id = id;
        s.tid = buf.tid;
        const int d = src.depth < 0 ? 0 : src.depth;
        if (d == 0)
            s.parent = parent.spanId;
        else if (d <= static_cast<int>(byDepth.size()))
            s.parent = byDepth[static_cast<size_t>(d - 1)];
        else if (!byDepth.empty())
            s.parent = byDepth.back();
        byDepth.resize(static_cast<size_t>(d));
        byDepth.push_back(id);
        buf.spans.push_back(std::move(s));
    }
}

std::vector<ConcurrentSpan> ConcurrentTracer::snapshot() const {
    std::vector<ConcurrentSpan> out;
    {
        std::lock_guard<std::mutex> lock(bufsMu_);
        for (const auto& buf : bufs_) {
            std::lock_guard<std::mutex> bl(buf->mu);
            out.insert(out.end(), buf->spans.begin(), buf->spans.end());
        }
    }
    std::sort(out.begin(), out.end(),
              [](const ConcurrentSpan& a, const ConcurrentSpan& b) {
                  if (a.startNs != b.startNs) return a.startNs < b.startNs;
                  return a.id < b.id;
              });
    return out;
}

int ConcurrentTracer::threadCount() const {
    std::lock_guard<std::mutex> lock(bufsMu_);
    int n = 0;
    for (const auto& buf : bufs_) {
        std::lock_guard<std::mutex> bl(buf->mu);
        if (!buf->spans.empty()) ++n;
    }
    return n;
}

std::size_t ConcurrentTracer::spanCount() const {
    std::lock_guard<std::mutex> lock(bufsMu_);
    std::size_t n = 0;
    for (const auto& buf : bufs_) {
        std::lock_guard<std::mutex> bl(buf->mu);
        n += buf->spans.size();
    }
    return n;
}

void ConcurrentTracer::clear() {
    std::lock_guard<std::mutex> lock(bufsMu_);
    for (const auto& buf : bufs_) {
        std::lock_guard<std::mutex> bl(buf->mu);
        buf->spans.clear();
        buf->openIds.clear();
    }
}

ContextScope::ContextScope(ConcurrentTracer& t, SpanContext ctx)
    : tracer_(t), pushed_(false) {
    if (!t.enabled() || ctx.spanId == 0) return;
    ConcurrentTracer::ThreadBuf& buf = t.localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.adopted.push_back(ctx.spanId);
    pushed_ = true;
}

ContextScope::~ContextScope() {
    if (!pushed_) return;
    ConcurrentTracer::ThreadBuf& buf = tracer_.localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    if (!buf.adopted.empty()) buf.adopted.pop_back();
}

}  // namespace phpf::obs
