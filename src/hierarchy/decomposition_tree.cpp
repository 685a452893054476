#include "hierarchy/decomposition_tree.hpp"

#include <numeric>
#include <stdexcept>

#include "check/audit_hierarchy.hpp"
#include "check/check.hpp"
#include "graph/connectivity.hpp"
#include "graph/subgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "separator/validate.hpp"
#include "util/parallel.hpp"

namespace pathsep::hierarchy {

namespace {

/// Separates one node: separator search, optional Definition-1 validation,
/// path/prefix assembly, component split, and child subgraph extraction.
/// Fills the node's paths and returns its children (graph, root ids, depth
/// set) in component order. Pure function of the node — safe to run
/// concurrently for distinct nodes.
std::vector<DecompositionNode> process_node(
    DecompositionNode& node, const separator::SeparatorFinder& finder,
    const DecompositionTree::Options& options) {
  const std::size_t n = node.graph.num_vertices();
  static obs::Counter& nodes_total =
      obs::default_registry().counter("hierarchy_build_nodes_total");
  nodes_total.inc();

  const separator::PathSeparator sep = [&] {
    PATHSEP_SPAN("hierarchy.separator_find");
    PATHSEP_STAGE_TIMER("hierarchy_separator_find_ns");
    return finder.find(node.graph, node.root_ids);
  }();
  if (sep.empty())
    throw std::runtime_error("separator finder returned an empty separator");
  if (options.validate_separators) {
    PATHSEP_SPAN("hierarchy.validate");
    PATHSEP_STAGE_TIMER("hierarchy_validate_ns");
    const separator::ValidationReport report =
        separator::validate(node.graph, sep);
    if (!report.ok)
      throw std::runtime_error(
          "separator validation failed at depth " +
          std::to_string(node.depth) + " (subtree of root vertex " +
          std::to_string(node.root_ids[0]) + "): " + report.error);
  }

  node.num_stages = sep.stages.size();
  for (std::size_t si = 0; si < sep.stages.size(); ++si) {
    for (const auto& path : sep.stages[si]) {
      NodePath np;
      np.verts = path;
      np.stage = si;
      np.prefix.resize(path.size());
      np.prefix[0] = 0;
      for (std::size_t i = 1; i < path.size(); ++i) {
        const Weight w = node.graph.edge_weight(path[i - 1], path[i]);
        if (w == graph::kInfiniteWeight)
          throw std::runtime_error("separator path uses a missing edge");
        np.prefix[i] = np.prefix[i - 1] + w;
      }
      node.paths.push_back(std::move(np));
    }
  }

  // Children: components of the node minus its separator, in label order —
  // the order that fixes the node numbering.
  PATHSEP_SPAN("hierarchy.component_split");
  PATHSEP_STAGE_TIMER("hierarchy_component_split_ns");
  const std::vector<bool> mask = sep.removal_mask(n);
  const graph::Components comps = graph::connected_components(node.graph, mask);
  std::vector<std::vector<Vertex>> members(comps.count());
  for (Vertex v = 0; v < n; ++v)
    if (comps.label[v] != graph::Components::kRemoved)
      members[comps.label[v]].push_back(v);
  std::vector<DecompositionNode> kids;
  kids.reserve(members.size());
  for (auto& m : members) {
    if (m.size() > n / 2)
      throw std::runtime_error(
          "separator left a component larger than n/2 (P3 violated)");
    graph::Subgraph sub = graph::induced_subgraph(node.graph, std::move(m));
    DecompositionNode& kid = kids.emplace_back();
    kid.root_ids.resize(sub.graph.num_vertices());
    for (Vertex v = 0; v < sub.graph.num_vertices(); ++v)
      kid.root_ids[v] = node.root_ids[sub.to_parent[v]];
    kid.graph = std::move(sub.graph);
    kid.depth = node.depth + 1;
  }
  return kids;
}

}  // namespace

DecompositionTree::DecompositionTree(const Graph& g,
                                     const separator::SeparatorFinder& finder,
                                     Options options) {
  if (g.num_vertices() == 0)
    throw std::invalid_argument("cannot decompose an empty graph");
  if (!graph::is_connected(g))
    throw std::invalid_argument("decomposition requires a connected graph");

  PATHSEP_SPAN("hierarchy.build");
  {
    DecompositionNode root;
    root.graph = g;
    root.root_ids.resize(g.num_vertices());
    std::iota(root.root_ids.begin(), root.root_ids.end(), Vertex{0});
    nodes_.push_back(std::move(root));
  }

  // Level by level: the nodes of one depth are independent, so they are
  // separated in parallel, and their children are appended in (parent,
  // component index) order. That is BFS order, so every id is final when
  // it is assigned and the tree is the same for every thread budget.
  const std::uint64_t build_span = obs::current_span();
  std::vector<std::vector<DecompositionNode>> kids;
  for (std::size_t level_begin = 0; level_begin < nodes_.size();) {
    const std::size_t level_end = nodes_.size();
    kids.assign(level_end - level_begin, {});
    util::parallel_for(
        kids.size(),
        [&](std::size_t i) {
          obs::SpanParentGuard trace_parent(build_span);
          kids[i] = process_node(nodes_[level_begin + i], finder, options);
        },
        /*grain=*/1);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      const int parent = static_cast<int>(level_begin + i);
      for (DecompositionNode& kid : kids[i]) {
        kid.parent = parent;
        nodes_[static_cast<std::size_t>(parent)].children.push_back(
            static_cast<int>(nodes_.size()));
        nodes_.push_back(std::move(kid));
      }
    }
    level_begin = level_end;
  }

  chains_.assign(g.num_vertices(), {});
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const DecompositionNode& node = nodes_[id];
    for (Vertex v = 0; v < node.graph.num_vertices(); ++v)
      chains_[node.root_ids[v]].push_back({static_cast<int>(id), v});
    height_ = std::max(height_, node.depth + 1);
  }

  PATHSEP_AUDIT(check::audit_decomposition(*this));
}

std::size_t DecompositionTree::common_chain_length(Vertex u, Vertex v) const {
  const auto& cu = chains_[u];
  const auto& cv = chains_[v];
  std::size_t len = 0;
  while (len < cu.size() && len < cv.size() &&
         cu[len].first == cv[len].first)
    ++len;
  return len;
}

std::size_t DecompositionTree::max_separator_paths() const {
  std::size_t k = 0;
  for (const auto& node : nodes_) k = std::max(k, node.paths.size());
  return k;
}

std::size_t DecompositionTree::total_paths() const {
  std::size_t k = 0;
  for (const auto& node : nodes_) k += node.paths.size();
  return k;
}

}  // namespace pathsep::hierarchy
