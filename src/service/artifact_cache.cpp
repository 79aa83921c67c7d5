#include "service/artifact_cache.h"

#include <algorithm>

namespace phpf::service {

ArtifactCache::ArtifactCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::shared_ptr<const CompileArtifact> ArtifactCache::get(
    const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return it->second->second;
}

void ArtifactCache::put(const std::string& key,
                        std::shared_ptr<const CompileArtifact> value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
}

CacheStats ArtifactCache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats st;
    st.hits = hits_;
    st.misses = misses_;
    st.evictions = evictions_;
    st.size = lru_.size();
    st.capacity = capacity_;
    return st;
}

}  // namespace phpf::service
