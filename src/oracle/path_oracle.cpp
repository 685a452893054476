#include "oracle/path_oracle.hpp"

#include <algorithm>
#include <utility>

namespace pathsep::oracle {

PathOracle::PathOracle(const hierarchy::DecompositionTree& tree,
                       double epsilon)
    : epsilon_(epsilon), arena_(build_labels(tree, epsilon)) {
  // Exact level map straight from the tree: node ids index nodes().
  node_levels_.reserve(tree.nodes().size());
  for (const hierarchy::DecompositionNode& node : tree.nodes())
    node_levels_.push_back(static_cast<std::int32_t>(node.depth));
  num_levels_ = tree.height();
}

PathOracle::PathOracle(LabelArena arena, double epsilon)
    : epsilon_(epsilon), arena_(std::move(arena)) {
  check_epsilon(epsilon);
  validate_arena(arena_);
  derive_levels_from_labels();
}

void PathOracle::derive_levels_from_labels() {
  // Snapshot loading gives us labels but no tree. Node ids were assigned in
  // BFS (parent before child) order, so along any vertex's chain they
  // strictly increase, and a label's parts — sorted by (node, path) — list
  // its chain's nodes in root-to-leaf order. A node's level is therefore the
  // rank of its id among the distinct node ids of a label reaching it; take
  // the max over labels in case some label's chain skips ancestors that
  // contributed no connections. validate_arena bounds every node id by
  // num_nodes, and num_nodes by the vertex count.
  node_levels_.assign(static_cast<std::size_t>(arena_.num_nodes), -1);
  for (std::size_t v = 0; v < arena_.num_vertices(); ++v) {
    const LabelView view = label(static_cast<Vertex>(v));
    std::int32_t rank = -1;
    std::int32_t prev = -1;
    for (std::size_t p = 0; p < view.num_parts(); ++p) {
      const std::int32_t node = view.part(p).node;
      if (node != prev) {
        ++rank;
        prev = node;
      }
      std::int32_t& level = node_levels_[static_cast<std::size_t>(node)];
      level = std::max(level, rank);
    }
  }
  std::int32_t max_level = -1;
  for (const std::int32_t level : node_levels_)
    max_level = std::max(max_level, level);
  num_levels_ = static_cast<std::size_t>(max_level + 1);
}

std::size_t PathOracle::size_in_words() const {
  return 2 * arena_.num_parts() + 3 * arena_.num_connections();
}

std::size_t PathOracle::max_label_words() const {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices(); ++v)
    best = std::max(best, label(static_cast<Vertex>(v)).size_in_words());
  return best;
}

double PathOracle::average_label_words() const {
  if (num_vertices() == 0) return 0;
  return static_cast<double>(size_in_words()) /
         static_cast<double>(num_vertices());
}

}  // namespace pathsep::oracle
