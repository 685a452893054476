#include "service/result_cache.hpp"

#include <bit>
#include <cmath>

#include "check/check.hpp"

namespace pathsep::service {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  if (shards == 0) shards = 1;
  shards = std::bit_ceil(shards);
  // No point in more shards than entries; a zero-capacity cache still gets
  // one (always-empty) shard so lookups need no special case.
  while (shards > 1 && capacity / shards == 0) shards /= 2;
  mask_ = shards - 1;
  shards_.reserve(shards);
  const std::size_t base = capacity / shards;
  const std::size_t extra = capacity % shards;
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = base + (s < extra ? 1 : 0);
  }
}

std::optional<graph::Weight> ResultCache::get(std::uint64_t key) {
  Shard& shard = shard_for(key);
  util::LockGuard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void ResultCache::put(std::uint64_t key, graph::Weight value) {
  // Non-canonical keys would make the same pair hit two different entries
  // (u,v) vs (v,u) — reject at the boundary.
  PATHSEP_ASSERT((key >> 32) <= (key & 0xffffffffULL),
                 "non-canonical cache key: high half ", key >> 32,
                 " exceeds low half ", key & 0xffffffffULL,
                 " — use ResultCache::key(u, v)");
  PATHSEP_ASSERT(!(value < 0) && !std::isnan(value),
                 "cached distance must be >= 0 or +inf, got ", value);
  Shard& shard = shard_for(key);
  if (shard.capacity == 0) return;
  {
    util::LockGuard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = value;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      if (shard.lru.size() >= shard.capacity) {
        shard.index.erase(shard.lru.back().first);
        shard.lru.pop_back();
      }
      shard.lru.emplace_front(key, value);
      shard.index.emplace(key, shard.lru.begin());
    }
    PATHSEP_AUDIT(audit_shard(shard, shard_index(key)));
  }
}

void ResultCache::clear() {
  for (auto& shard : shards_) {
    util::LockGuard lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

std::size_t ResultCache::shard_index(std::uint64_t key) const {
  // splitmix64 finalizer: decorrelates the packed vertex ids so adjacent
  // pairs spread across shards.
  std::uint64_t x = key;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x & mask_);
}

void ResultCache::audit_shard(const Shard& shard, std::size_t index) const {
  // PATHSEP_REQUIRES(shard.mutex) on the declaration: callers hold the lock.
  PATHSEP_ASSERT(shard.index.size() == shard.lru.size(), "cache shard ",
                 index, " index holds ", shard.index.size(),
                 " entries but LRU list holds ", shard.lru.size());
  PATHSEP_ASSERT(shard.lru.size() <= shard.capacity, "cache shard ", index,
                 " holds ", shard.lru.size(), " entries over its capacity ",
                 shard.capacity);
  for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
    const std::uint64_t key = it->first;
    PATHSEP_ASSERT((key >> 32) <= (key & 0xffffffffULL),
                   "cache shard ", index, " holds non-canonical key ", key);
    PATHSEP_ASSERT(shard_index(key) == index, "cache key ", key,
                   " stored in shard ", index, " but hashes to shard ",
                   shard_index(key));
    const auto indexed = shard.index.find(key);
    PATHSEP_ASSERT(indexed != shard.index.end() && indexed->second == it,
                   "cache shard ", index, " LRU entry for key ", key,
                   " is not indexed at itself");
    PATHSEP_ASSERT(!(it->second < 0) && !std::isnan(it->second),
                   "cache shard ", index, " key ", key,
                   " caches invalid distance ", it->second);
  }
}

void ResultCache::audit() const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    util::LockGuard lock(shards_[s]->mutex);
    audit_shard(*shards_[s], s);
  }
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    util::LockGuard lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace pathsep::service
