// Sharded LRU cache for distance-query results.
//
// Distance queries are symmetric and the oracle snapshot is immutable, so a
// result for the canonical key (min(u,v), max(u,v)) never goes stale and can
// be served to both query directions. Shards (power-of-two count, each with
// its own mutex, map, and LRU list) keep lock contention low under
// concurrent serving. Hits and misses are counted once, by the caller (the
// cache_hits / cache_misses metrics of service::AnswerPath).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/thread_annotations.hpp"

namespace pathsep::service {

class ResultCache {
 public:
  /// `capacity` is the total entry budget split evenly across shards;
  /// `shards` is rounded up to a power of two. capacity == 0 is a valid
  /// always-miss cache (used to disable caching without branching callers).
  explicit ResultCache(std::size_t capacity, std::size_t shards = 16);

  /// Canonical symmetric key: (min(u,v), max(u,v)) packed into 64 bits.
  static std::uint64_t key(graph::Vertex u, graph::Vertex v) {
    const std::uint64_t lo = u < v ? u : v;
    const std::uint64_t hi = u < v ? v : u;
    return (lo << 32) | hi;
  }

  std::optional<graph::Weight> get(std::uint64_t key);
  void put(std::uint64_t key, graph::Weight value);
  void clear();

  /// Deep invariant audit of every shard (LRU/index agreement, capacity,
  /// key canonicality and placement, value sanity); fails via PATHSEP_ASSERT.
  /// Called through check::audit_result_cache and, per touched shard, from
  /// put() when PATHSEP_AUDIT is enabled.
  void audit() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    util::Mutex mutex;
    /// front = most recently used; pairs of (key, value).
    std::list<std::pair<std::uint64_t, graph::Weight>> lru
        PATHSEP_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<std::uint64_t, graph::Weight>>::iterator>
        index PATHSEP_GUARDED_BY(mutex);
    /// Immutable after construction (set before the cache is shared), so
    /// put()'s lock-free early-out read is safe.
    std::size_t capacity = 0;
  };

  /// Shard index of `key` (splitmix64-mixed); audit checks placement with it.
  std::size_t shard_index(std::uint64_t key) const;

  Shard& shard_for(std::uint64_t key) { return *shards_[shard_index(key)]; }

  void audit_shard(const Shard& shard, std::size_t index) const
      PATHSEP_REQUIRES(shard.mutex);

  std::size_t capacity_;
  std::uint64_t mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pathsep::service
