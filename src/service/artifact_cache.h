#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace phpf::service {

struct CompileArtifact;

/// Point-in-time cache counters (monotonic except size).
struct CacheStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    int shards = 0;
};

/// Bounded, sharded LRU of immutable compile artifacts, keyed by the
/// content-addressed request key (service/fingerprint.h). Each shard is
/// an independent lock + intrusive LRU list, so concurrent batch
/// workers hitting different keys never contend; values are
/// shared_ptr-to-const, so an artifact evicted mid-use stays alive for
/// whoever already holds it.
class ArtifactCache {
public:
    /// `capacity` is the total entry bound across shards (each shard
    /// gets the rounded-up equal split, minimum 1); `shards` is clamped
    /// to [1, 64].
    ArtifactCache(std::size_t capacity, int shards);

    /// Lookup; bumps the entry to most-recently-used and counts a hit
    /// or a miss. `countMiss = false` suppresses the miss counter for
    /// internal double-checks (e.g. the coalescing leader's re-check),
    /// keeping hits + misses == lookups as seen by callers.
    [[nodiscard]] std::shared_ptr<const CompileArtifact> get(
        const std::string& key, bool countMiss = true);

    /// Insert or refresh; evicts the shard's least-recently-used entry
    /// beyond capacity.
    void put(const std::string& key,
             std::shared_ptr<const CompileArtifact> value);

    [[nodiscard]] CacheStats stats() const;

private:
    struct Shard {
        mutable std::mutex mu;
        /// front = most recently used.
        std::list<std::pair<std::string, std::shared_ptr<const CompileArtifact>>>
            lru;
        std::unordered_map<std::string, decltype(lru)::iterator> index;
    };

    [[nodiscard]] Shard& shardFor(const std::string& key);

    std::size_t shardCapacity_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::int64_t> hits_{0};
    std::atomic<std::int64_t> misses_{0};
    std::atomic<std::int64_t> evictions_{0};
};

}  // namespace phpf::service
