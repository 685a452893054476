// The centralized (1+ε)-approximate distance oracle of Theorem 2: the
// collection of all distance labels, queried in O(k/ε · polylog) time.
#pragma once

#include <memory>

#include "check/check.hpp"
#include "oracle/labels.hpp"

namespace pathsep::oracle {

class PathOracle {
 public:
  /// Builds the oracle for the graph underlying `tree` (root ids).
  PathOracle(const hierarchy::DecompositionTree& tree, double epsilon);

  /// Adopts a prebuilt arena (snapshot loading; see service/snapshot.hpp).
  /// The arena may come from outside the process: validate_arena runs
  /// first, so a malformed one throws std::runtime_error before any label
  /// is read. It need not be dominance-free. A non-finite or non-positive
  /// epsilon throws std::invalid_argument (check_epsilon).
  PathOracle(LabelArena arena, double epsilon);

  /// (1+ε)-approximate distance between root-graph vertices. Never
  /// underestimates; kInfiniteWeight if u and v are disconnected.
  ///
  /// All query* entry points take in-range ids (u, v < num_vertices()) and
  /// do not check them in release builds: ids from outside the process are
  /// validated at the boundary (the wire server rejects the frame).
  Weight query(Vertex u, Vertex v) const {
    check_ids(u, v);
    return query_labels(label(u), label(v));
  }

  /// Same estimate, with its cost attribution (QueryStats): the serving
  /// layer aggregates answers per win_level.
  Weight query_stats(Vertex u, Vertex v, QueryStats& stats) const {
    check_ids(u, v);
    return query_labels(label(u), label(v), stats);
  }

  /// Prefetch hints for a loop of query* calls (see LabelArena): issue
  /// prefetch_offsets three queries ahead, prefetch two ahead and
  /// prefetch_hot one ahead.
  [[gnu::always_inline]] void prefetch_offsets(Vertex u, Vertex v) const {
    arena_.prefetch_offsets(u);
    arena_.prefetch_offsets(v);
  }
  [[gnu::always_inline]] void prefetch(Vertex u, Vertex v) const {
    arena_.prefetch_parts(u);
    arena_.prefetch_parts(v);
  }
  [[gnu::always_inline]] void prefetch_hot(Vertex u, Vertex v) const {
    arena_.prefetch_hot(u);
    arena_.prefetch_hot(v);
  }

  /// 1 + the largest depth any label part carries (0 for an oracle without
  /// parts): the decomposition tree's height.
  std::size_t num_levels() const { return num_levels_; }

  double epsilon() const { return epsilon_; }
  std::size_t num_vertices() const { return arena_.num_vertices(); }

  LabelView label(Vertex v) const { return arena_.label(v); }
  const LabelArena& arena() const { return arena_; }

  /// Total space in words (sum of label sizes).
  std::size_t size_in_words() const;

  /// Largest single label in words — the distributed cost of Theorem 2.
  std::size_t max_label_words() const;

  double average_label_words() const;

 private:
  void check_ids([[maybe_unused]] Vertex u, [[maybe_unused]] Vertex v) const {
    PATHSEP_DCHECK(u < num_vertices() && v < num_vertices(),
                   "query ids (", u, ", ", v, ") out of range for ",
                   num_vertices(), " vertices");
  }

  double epsilon_;
  LabelArena arena_;
  std::size_t num_levels_ = 0;
};

}  // namespace pathsep::oracle
