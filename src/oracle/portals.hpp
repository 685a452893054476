// ε-portal ("connection") machinery shared by the distance oracle, the
// distance labels, the routing scheme and the small-world augmentation.
//
// For a vertex v and a separator path Q (shortest in the residual graph J of
// its stage), let x_c be v's projection on Q and d = d_J(v, Q). Portals are
// path vertices at prefix distances s_0 = 0, s_{j+1} = s_j + (ε/2)·max(d,
// s_j - d) on both sides of x_c. For any x on Q at distance y from x_c this
// guarantees a portal p with d_Q(p, x) <= (ε/2)·max(d, y-d) <=
// (ε/2)·d_J(v,x), which is exactly what the (1+ε) query bound needs
// (Theorem 2; the ladder is the constructive counterpart of the paper's
// Claim 1, which we also implement verbatim for the small-world result).
//
// Per (v, Q) this yields O(1/ε · (1 + log Δ)) connections; the exact
// d_J(v, portal) values are computed by one masked Dijkstra per *distinct*
// portal vertex (at most |Q| per path), shared across all requesting
// vertices, early-terminated once the last requester settles, and fanned
// out across the shared thread pool (see compute_connections).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hierarchy/decomposition_tree.hpp"

namespace pathsep::oracle {

using graph::Vertex;
using graph::Weight;

/// One stored connection of a vertex to a separator path.
struct Connection {
  std::uint32_t path_index;  ///< portal's index into NodePath::verts
  Vertex next_hop;           ///< first hop of the v→portal shortest path in J
                             ///< (kInvalidVertex when v is the portal)
  Weight dist;               ///< exact d_J(v, portal)
  Weight prefix;             ///< portal's prefix position on the path
};

/// Throws std::invalid_argument unless epsilon is a finite number > 0: NaN
/// or +inf would build labels whose (1+ε) bound means nothing.
void check_epsilon(double epsilon);

/// ε-ladder indices on a path: prefix sums `prefix`, anchor index, base
/// distance d >= 0. Sorted ascending, deduplicated, always contains anchor.
std::vector<std::uint32_t> epsilon_ladder(std::span<const Weight> prefix,
                                          std::uint32_t anchor, Weight d,
                                          double epsilon);

/// Allocation-free variant for the request-generation hot loop: clears and
/// refills `out` (same contents as epsilon_ladder) so one buffer serves all
/// (vertex, path) pairs of a node.
void epsilon_ladder_into(std::span<const Weight> prefix, std::uint32_t anchor,
                         Weight d, double epsilon,
                         std::vector<std::uint32_t>& out);

/// Claim 1 landmark indices: both sides of the anchor, the first vertex at
/// prefix distance >= (i/2)·d for i in 0..10 and >= 2^i·d for i in
/// 0..ceil(log2 Δ). For d == 0 this degenerates to {anchor} (Note 1).
std::vector<std::uint32_t> claim1_ladder(std::span<const Weight> prefix,
                                         std::uint32_t anchor, Weight d,
                                         double aspect_ratio);

/// Projection of every alive vertex onto one separator path.
struct PathProjection {
  std::vector<Weight> dist;           ///< d_J(v, Q); +inf if unreachable
  std::vector<std::uint32_t> anchor;  ///< index of x_c on the path
};

/// All projections of a node's paths (indexed like DecompositionNode::paths).
/// Vertices removed by earlier stages are unreachable (+inf).
std::vector<PathProjection> compute_projections(
    const hierarchy::DecompositionNode& node);

/// Per-path, per-vertex connection lists for one decomposition node, sorted
/// by prefix position, one flat array per path: list(p, v) is empty when v
/// is unreachable from path p in its stage's residual graph.
struct NodeConnections {
  struct PathLists {
    std::vector<std::size_t> offsets;  ///< v's list: [offsets[v], offsets[v+1])
    std::vector<Connection> entries;
  };
  std::vector<PathLists> paths;  ///< indexed like DecompositionNode::paths

  std::span<const Connection> list(std::size_t path, Vertex v) const {
    const PathLists& lists = paths[path];
    return std::span<const Connection>(lists.entries)
        .subspan(lists.offsets[v], lists.offsets[v + 1] - lists.offsets[v]);
  }
  std::span<Connection> list(std::size_t path, Vertex v) {
    PathLists& lists = paths[path];
    return std::span<Connection>(lists.entries)
        .subspan(lists.offsets[v], lists.offsets[v + 1] - lists.offsets[v]);
  }
};

/// Computes all of a node's connection lists. The per-portal masked
/// Dijkstras inside each stage are independent read-only computations; on
/// stages big enough to pay for dispatch they fan out as chunked tasks
/// within the thread budget (one DijkstraWorkspace per thread), each run
/// early-terminating once all of its requesting vertices are settled.
/// Results are written into pre-sized per-(path, vertex) slots in ladder
/// order, so the output — and with it the serialized label bytes — is
/// identical for every thread budget.
NodeConnections compute_connections(const hierarchy::DecompositionNode& node,
                                    double epsilon);

}  // namespace pathsep::oracle
