// pathsep-lint: hot-path — one push per relaxation and one pop per queued
// entry of every SSSP; warm buckets reuse their capacity.
//
// Monotone radix priority queue over (distance, vertex) — the one queue every
// Dijkstra loop runs on (Ahuja, Mehlhorn, Orlin and Tarjan, "Faster
// algorithms for the shortest path problem", JACM 1990).
//
// Keys are the IEEE-754 bit patterns of non-negative doubles, which order
// like the doubles themselves, so the queue serves unit, integer and real
// weights alike. `last_` is the key of the most recent pop; Dijkstra never
// pushes below it. An entry whose key equals `last_` sits in the *batch*
// (bucket 0); any other entry sits in bucket 64 − countl_zero(key ^ last_),
// 1..64, the position of the highest bit where it differs from `last_`. An
// empty batch refills from the lowest non-empty bucket: its least key becomes
// `last_`, and every entry moves to a strictly lower bucket or into the
// batch, so each entry moves at most 64 times over a run.
//
// Pops come out in exactly the order of a binary heap on (distance, id): the
// batch is kept sorted by descending id and popped from the back. It is
// re-sorted lazily, on the next pop after an entry arrived out of order —
// e.g. an edge whose weight vanishes in `d + w`, or thousands of
// multi-source projection sources at key 0 — never by an O(k) insertion.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace pathsep::sssp {

class RadixQueue {
 public:
  struct Entry {
    graph::Weight dist;
    graph::Vertex v;
  };

  /// Empties the queue and resets the floor to 0. Clears only the buckets
  /// the occupancy mask marks as used; keeps every bucket's capacity.
  void clear() {
    for (std::uint64_t m = used_; m != 0; m &= m - 1)
      buckets_[std::countr_zero(m)].clear();
    used_ = 0;
    batch_.clear();
    batch_sorted_ = true;
    last_ = 0;
  }

  bool empty() const { return used_ == 0 && batch_.empty(); }

  /// Queues v at distance d. Requires d ≥ 0 and d ≥ the last popped
  /// distance (Dijkstra's monotonicity); a vertex may be queued again at a
  /// smaller distance, leaving the old entry stale for the caller to skip.
  void push(graph::Weight d, graph::Vertex v) {
    const std::uint64_t key = std::bit_cast<std::uint64_t>(d);
    assert(d >= 0 && key >= last_);
    if (key == last_) {
      if (!batch_.empty() && v > batch_.back().v) batch_sorted_ = false;
      batch_.push_back({d, v});
      return;
    }
    const int b = bucket_of(key);
    buckets_[b].push_back({d, v});
    used_ |= std::uint64_t{1} << b;
  }

  /// Removes and returns the least (distance, id) entry. Requires !empty().
  Entry pop() {
    assert(!empty());
    if (batch_.empty()) refill();
    if (!batch_sorted_) {
      std::sort(batch_.begin(), batch_.end(),
                [](const Entry& a, const Entry& b) { return a.v > b.v; });
      batch_sorted_ = true;
    }
    const Entry top = batch_.back();
    batch_.pop_back();
    return top;
  }

 private:
  static std::uint64_t key_of(const Entry& e) {
    return std::bit_cast<std::uint64_t>(e.dist);
  }

  /// Index into buckets_ (bucket number − 1) of a key other than last_.
  int bucket_of(std::uint64_t key) const {
    return 63 - std::countl_zero(key ^ last_);
  }

  /// Moves the lowest non-empty bucket's least key into the batch, making it
  /// the new floor, and redistributes the rest of that bucket below it.
  void refill() {
    const int from = std::countr_zero(used_);
    std::vector<Entry>& src = buckets_[from];
    std::uint64_t least = key_of(src.front());
    for (const Entry& e : src) least = std::min(least, key_of(e));
    last_ = least;
    for (const Entry& e : src) {
      const std::uint64_t key = key_of(e);
      if (key == last_) {
        if (!batch_.empty() && e.v > batch_.back().v) batch_sorted_ = false;
        batch_.push_back(e);
        continue;
      }
      const int b = bucket_of(key);
      assert(b < from);
      buckets_[b].push_back(e);
      used_ |= std::uint64_t{1} << b;
    }
    src.clear();
    used_ &= ~(std::uint64_t{1} << from);
  }

  /// Bit b set iff buckets_[b] (bucket number b + 1) is non-empty; with the
  /// batch's own emptiness it is the 65-bucket occupancy mask.
  std::uint64_t used_ = 0;
  std::uint64_t last_ = 0;     ///< key of the last pop; 0 at the start
  bool batch_sorted_ = true;   ///< batch_ is in descending id order
  std::vector<Entry> batch_;   ///< entries with key == last_ (bucket 0)
  std::array<std::vector<Entry>, 64> buckets_;
};

}  // namespace pathsep::sssp
