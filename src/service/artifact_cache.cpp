#include "service/artifact_cache.h"

#include <cstdint>

#include "service/fingerprint.h"

namespace phpf::service {

ArtifactCache::ArtifactCache(std::size_t capacity, int shards) {
    if (shards < 1) shards = 1;
    if (shards > 64) shards = 64;
    if (capacity < 1) capacity = 1;
    // Never more shards than entries, or per-shard capacity rounds to
    // a uselessly tiny LRU.
    if (static_cast<std::size_t>(shards) > capacity)
        shards = static_cast<int>(capacity);
    // Rounded-up split; `capacity + shards - 1` would wrap near
    // SIZE_MAX and leave every shard with room for nothing.
    const auto n = static_cast<std::size_t>(shards);
    shardCapacity_ = capacity / n + (capacity % n != 0 ? 1 : 0);
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ArtifactCache::Shard& ArtifactCache::shardFor(const std::string& key) {
    // Independent stream from the key hashes embedded in the key text.
    const std::uint64_t h = fnv1a64(key, 0x84222325cbf29ce4ull);
    return *shards_[h % shards_.size()];
}

std::shared_ptr<const CompileArtifact> ArtifactCache::get(
    const std::string& key, bool countMiss) {
    Shard& s = shardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
        if (countMiss) misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
}

void ArtifactCache::put(const std::string& key,
                        std::shared_ptr<const CompileArtifact> value) {
    Shard& s = shardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
        it->second->second = std::move(value);
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        return;
    }
    s.lru.emplace_front(key, std::move(value));
    s.index.emplace(key, s.lru.begin());
    while (s.lru.size() > shardCapacity_) {
        s.index.erase(s.lru.back().first);
        s.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

CacheStats ArtifactCache::stats() const {
    CacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    // Saturates: near SIZE_MAX the rounded-up split times the shard
    // count would wrap.
    st.capacity =
        shardCapacity_ > SIZE_MAX / shards_.size()
            ? SIZE_MAX
            : shardCapacity_ * shards_.size();
    st.shards = static_cast<int>(shards_.size());
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mu);
        st.size += sh->lru.size();
    }
    return st;
}

}  // namespace phpf::service
