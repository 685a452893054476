// The centralized (1+ε)-approximate distance oracle of Theorem 2: the
// collection of all distance labels, queried in O(k/ε · polylog) time.
#pragma once

#include <memory>

#include "check/check.hpp"
#include "oracle/labels.hpp"

namespace pathsep::oracle {

/// Cost attribution of one oracle query: what query_labels measured plus
/// the decomposition level of the winning portal's node — the quantity the
/// serving layer aggregates per level (deep levels mean long chains, long
/// sweeps, tail latency).
struct QueryStats {
  std::uint32_t entries_scanned = 0;
  std::int32_t win_node = -1;   ///< decomposition node of the winning sweep
  std::int32_t win_path = -1;   ///< path index within that node
  std::int32_t win_level = -1;  ///< its level (depth); -1 = no finite answer
};

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

  /// Same, also reporting the number of connections scanned.
  Weight query_counted(Vertex u, Vertex v, std::size_t* visited) const {
    check_ids(u, v);
    return query_labels(label(u), label(v), visited);
  }

  /// Same estimate, with full cost attribution.
  Weight query_stats(Vertex u, Vertex v, QueryStats& stats) const {
    check_ids(u, v);
    QueryCost cost;
    const Weight d = query_labels(label(u), label(v), cost);
    stats.entries_scanned = cost.entries_scanned;
    stats.win_node = cost.win_node;
    stats.win_path = cost.win_path;
    stats.win_level = node_level(cost.win_node);
    return d;
  }

  /// Prefetch hints for a loop of query* calls (see LabelArena): issue
  /// prefetch_offsets two queries ahead and prefetch one query ahead.
  [[gnu::always_inline]] void prefetch_offsets(Vertex u, Vertex v) const {
    arena_.prefetch_offsets(u);
    arena_.prefetch_offsets(v);
  }
  [[gnu::always_inline]] void prefetch(Vertex u, Vertex v) const {
    arena_.prefetch_parts(u);
    arena_.prefetch_parts(v);
  }

  /// Level (depth) of a decomposition node, or -1 for out-of-range ids
  /// (including the -1 "no winner" sentinel). Exact tree depths when the
  /// oracle was built from a tree; reconstructed from label chain order
  /// when loaded from a snapshot (node ids increase down every chain, so a
  /// node's level is its rank among the distinct node ids of any label that
  /// reaches it — levels a label skips make the reconstruction a lower
  /// bound, exact in practice because every chain contributes its prefix).
  std::int32_t node_level(std::int32_t node) const {
    if (node < 0 || static_cast<std::size_t>(node) >= node_levels_.size())
      return -1;
    return node_levels_[static_cast<std::size_t>(node)];
  }

  /// 1 + the largest known level (0 for an empty oracle).
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
  void derive_levels_from_labels();

  double epsilon_;
  LabelArena arena_;
  std::vector<std::int32_t> node_levels_;  ///< indexed by node id
  std::size_t num_levels_ = 0;
};

}  // namespace pathsep::oracle
