#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace phpf::service {

struct CompileArtifact;

/// Point-in-time cache counters (monotonic except size).
struct CacheStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
};

/// Bounded LRU of immutable compile artifacts, keyed by the
/// content-addressed request key (service/fingerprint.h), behind one
/// mutex. Values are shared_ptr-to-const, so an artifact evicted
/// mid-use stays alive for whoever already holds it.
class ArtifactCache {
public:
    /// Holds up to `capacity` entries (at least 1).
    explicit ArtifactCache(std::size_t capacity);

    /// Lookup; bumps the entry to most-recently-used and counts a hit
    /// or a miss.
    [[nodiscard]] std::shared_ptr<const CompileArtifact> get(
        const std::string& key);

    /// Insert or refresh; evicts the least-recently-used entry beyond
    /// capacity.
    void put(const std::string& key,
             std::shared_ptr<const CompileArtifact> value);

    [[nodiscard]] CacheStats stats() const;

private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    /// front = most recently used.
    std::list<std::pair<std::string, std::shared_ptr<const CompileArtifact>>>
        lru_;
    std::unordered_map<std::string, decltype(lru_)::iterator> index_;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t evictions_ = 0;
};

}  // namespace phpf::service
