#include "separator/finders.hpp"

#include "obs/metrics.hpp"
#include "treedec/tree_decomposition.hpp"

namespace pathsep::separator {

namespace {

/// Labeled per-strategy counter: which finder AutoSeparator actually ran.
inline void count_dispatch(const char* strategy) {
  obs::default_registry()
      .counter("separator_dispatch_total", {{"strategy", strategy}})
      .inc();
}

}  // namespace

AutoSeparator::AutoSeparator(
    std::optional<std::vector<graph::Point>> root_positions,
    std::size_t treewidth_threshold)
    : treewidth_threshold_(treewidth_threshold) {
  if (root_positions) planar_.emplace(std::move(*root_positions));
}

PathSeparator AutoSeparator::find(const Graph& g,
                                  std::span<const Vertex> root_ids) const {
  const std::size_t n = g.num_vertices();
  if (n == 0) return {};
  if (g.num_edges() == n - 1) {
    count_dispatch("tree");
    return tree_.find(g, root_ids);
  }
  if (planar_) {
    count_dispatch("planar");
    return planar_->find(g, root_ids);
  }
  // No drawing available: accept the center bag when the heuristic width is
  // small, otherwise fall back to greedy paths.
  const treedec::TreeDecomposition td = treedec::heuristic_decomposition(g);
  if (td.width() + 1 <= treewidth_threshold_) {
    count_dispatch("treewidth_bag");
    return bag_.find(g, root_ids);
  }
  count_dispatch("greedy_paths");
  return greedy_.find(g, root_ids);
}

}  // namespace pathsep::separator
