// Result cache for distance queries: a flat 4-way set-associative table per
// ShardedEngine shard, touched only by that shard's worker (shard_of gives
// every canonical pair one owner), so it takes no lock. Results are keyed by
// (min(u,v), max(u,v)) and serve both directions. A set is four {u64 key,
// f64 value} entries, one 64-byte line, in recency order: a hit moves to the
// front, an insert drops the last way. The capacity rounds down to 4 × a
// power of two (below 4 every get misses). A table lives and dies with its
// engine, which serves one snapshot for its whole life, so no entry can
// outlive the labeling it came from; service::AnswerPath counts hits and
// misses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace pathsep::service {

class ResultCache {
 public:
  static constexpr std::size_t kWays = 4;
  /// Entry cap for callers sizing a cache from outside input (256 MiB).
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 24;

  explicit ResultCache(std::size_t capacity);

  /// Canonical symmetric key: (min(u,v), max(u,v)) packed into 64 bits.
  static std::uint64_t key(graph::Vertex u, graph::Vertex v) {
    const std::uint64_t lo = u < v ? u : v;
    const std::uint64_t hi = u < v ? v : u;
    return (lo << 32) | hi;
  }

  std::optional<graph::Weight> get(std::uint64_t key);
  void put(std::uint64_t key, graph::Weight value);
  /// Starts loading the set of `key` for a get() or put() soon after; only
  /// a hint, it changes nothing.
  void prefetch(std::uint64_t key) const;
  void clear();

  /// Deep invariant audit of every set (key canonicality and placement, no
  /// duplicate keys, empty ways only at the back, value sanity); fails via
  /// PATHSEP_ASSERT. Called through check::audit_result_cache and, for the
  /// set it touched, from put() when PATHSEP_AUDIT is enabled.
  void audit() const;

  std::size_t capacity() const { return sets_.size() * kWays; }

 private:
  struct Entry {
    std::uint64_t key;
    graph::Weight value;
  };
  struct alignas(64) Set {
    Entry ways[kWays];
  };
  /// Marks an unused way; its high half exceeds its low half, so no
  /// canonical key equals it.
  static constexpr std::uint64_t kEmpty = 0xffffffff00000000ULL;

  std::size_t set_index(std::uint64_t key) const;
  /// Moves ways [0, from) back by one and stores `entry` in front.
  static void promote(Entry* ways, std::size_t from, Entry entry);
  void audit_set(std::size_t index) const;

  std::vector<Set> sets_;
  std::uint64_t mask_;  ///< sets_.size() - 1
};

}  // namespace pathsep::service
