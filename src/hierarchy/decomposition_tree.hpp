// The decomposition tree 𝒯 of §4: recursively separate G with a k-path
// separator; children of a node are the connected components left after
// removing the node's separator. Because every component has at most half
// the vertices (P3), the depth is at most log2(n) + 1.
//
// Every object-location application consumes this structure:
//   * oracle/  — (1+ε) distance oracle and labels (Theorem 2),
//   * routing/ — stretch-(1+ε) compact routing,
//   * smallworld/ — the augmentation distribution of Theorem 3.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "separator/path_separator.hpp"

namespace pathsep::hierarchy {

using graph::Graph;
using graph::Vertex;
using graph::Weight;

/// One separator path of a node, with prefix path-costs for O(1) along-path
/// distances: d_Q(verts[i], verts[j]) == |prefix[j] - prefix[i]|.
struct NodePath {
  std::vector<Vertex> verts;    ///< local vertex ids along the path
  std::vector<Weight> prefix;   ///< prefix[0] == 0
  std::size_t stage = 0;        ///< which P_i of the separator this is in

  Weight length() const { return prefix.empty() ? 0 : prefix.back(); }
};

struct DecompositionNode {
  Graph graph;                    ///< induced subgraph, local ids
  std::vector<Vertex> root_ids;   ///< local id -> root-graph id
  std::vector<NodePath> paths;    ///< separator paths, flattened over stages
  std::size_t num_stages = 0;
  int parent = -1;
  std::vector<int> children;
  std::uint32_t depth = 0;        ///< root has depth 0
};

class DecompositionTree {
 public:
  struct Options {
    /// Validate every separator against Definition 1 (slow; for tests).
    bool validate_separators = false;
  };

  /// Builds the full hierarchy of `g` (which must be connected) using
  /// `finder` at every node; the nodes of each depth are separated
  /// concurrently within the thread budget (`finder.find` must be safe to
  /// call concurrently on distinct graphs — all in-tree finders are). Node
  /// ids follow BFS order with children in component order, the same for
  /// every budget. Throws std::runtime_error
  /// if a separator fails validation (when enabled) or comes back empty on a
  /// non-empty graph.
  DecompositionTree(const Graph& g, const separator::SeparatorFinder& finder,
                    Options options);
  DecompositionTree(const Graph& g, const separator::SeparatorFinder& finder)
      : DecompositionTree(g, finder, Options{}) {}

  const Graph& root_graph() const { return nodes_[0].graph; }
  const std::vector<DecompositionNode>& nodes() const { return nodes_; }
  const DecompositionNode& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// Chain of (node id, local vertex id) containing root vertex v, from the
  /// root node downward. The last entry is the node whose separator removed
  /// v. This is the path H_1(v), H_2(v), ... of §4.
  const std::vector<std::pair<int, Vertex>>& chain(Vertex v) const {
    return chains_[v];
  }

  /// Number of common chain entries of u and v (nodes containing both).
  std::size_t common_chain_length(Vertex u, Vertex v) const;

  /// 1 + max node depth.
  std::uint32_t height() const { return height_; }

  /// max over nodes of the separator path count — the measured k.
  std::size_t max_separator_paths() const;

  /// Total separator paths over all nodes.
  std::size_t total_paths() const;

 private:
  std::vector<DecompositionNode> nodes_;
  std::vector<std::vector<std::pair<int, Vertex>>> chains_;
  std::uint32_t height_ = 0;
};

}  // namespace pathsep::hierarchy
