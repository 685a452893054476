// pathsep-lint: hot-path — get/put sit under every cached query; the table
// is allocated once, in the constructor.
#include "service/result_cache.hpp"

#include <bit>
#include <cmath>

#include "check/check.hpp"

namespace pathsep::service {
namespace {

bool canonical(std::uint64_t key) {
  return (key >> 32) <= (key & 0xffffffffULL);
}

bool legal_distance(graph::Weight value) {
  return !(value < 0) && !std::isnan(value);
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity)
    : sets_(capacity < kWays ? 0 : std::bit_floor(capacity / kWays)),
      mask_(sets_.empty() ? 0 : sets_.size() - 1) {}

std::size_t ResultCache::set_index(std::uint64_t key) const {
  // splitmix64 finalizer without shard_of's increment, so the set is
  // independent of the shard a pair maps to.
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(((key ^ (key >> 31)) >> 32) & mask_);
}

void ResultCache::promote(Entry* ways, std::size_t from, Entry entry) {
  for (; from > 0; --from) ways[from] = ways[from - 1];
  ways[0] = entry;
}

std::optional<graph::Weight> ResultCache::get(std::uint64_t key) {
  if (sets_.empty()) return std::nullopt;
  Entry* ways = sets_[set_index(key)].ways;
  for (std::size_t i = 0; i < kWays; ++i)
    if (ways[i].key == key) {
      const Entry hit = ways[i];
      promote(ways, i, hit);
      return hit.value;
    }
  return std::nullopt;
}

void ResultCache::prefetch(std::uint64_t key) const {
  if (!sets_.empty()) __builtin_prefetch(&sets_[set_index(key)]);
}

void ResultCache::put(std::uint64_t key, graph::Weight value) {
  // Non-canonical keys would make the same pair hit two different entries
  // (u,v) vs (v,u) — reject at the boundary.
  PATHSEP_ASSERT(canonical(key), "non-canonical cache key: high half ",
                 key >> 32, " exceeds low half ", key & 0xffffffffULL,
                 " — use ResultCache::key(u, v)");
  PATHSEP_ASSERT(legal_distance(value),
                 "cached distance must be >= 0 or +inf, got ", value);
  if (sets_.empty()) return;
  const std::size_t index = set_index(key);
  Entry* ways = sets_[index].ways;
  // A key already in the set moves up from its way; a new key pushes the
  // least recently used (last) way out.
  std::size_t from = 0;
  while (from + 1 < kWays && ways[from].key != key) ++from;
  promote(ways, from, Entry{key, value});
  PATHSEP_AUDIT(audit_set(index));
}

void ResultCache::audit_set(std::size_t index) const {
  const Entry* ways = sets_[index].ways;
  for (std::size_t i = 0; i < kWays; ++i) {
    const std::uint64_t key = ways[i].key;
    if (key == kEmpty) {  // ways fill from the front
      PATHSEP_ASSERT(i + 1 == kWays || ways[i + 1].key == kEmpty, "cache set ",
                     index, " holds a key behind its empty way ", i);
      continue;
    }
    PATHSEP_ASSERT(canonical(key) && set_index(key) == index, "cache set ",
                   index, " holds key ", key,
                   ", which is non-canonical or hashes to set ",
                   set_index(key));
    PATHSEP_ASSERT(legal_distance(ways[i].value), "cache key ", key,
                   " caches invalid distance ", ways[i].value);
    for (std::size_t j = 0; j < i; ++j)
      PATHSEP_ASSERT(ways[j].key != key, "cache set ", index, " holds key ",
                     key, " twice");
  }
}

void ResultCache::audit() const {
  for (std::size_t s = 0; s < sets_.size(); ++s) audit_set(s);
}

}  // namespace pathsep::service
