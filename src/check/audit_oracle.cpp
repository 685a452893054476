#include "check/audit_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/check.hpp"

namespace pathsep::check {

using graph::Vertex;
using graph::Weight;
using oracle::Connection;

void audit_labels(const oracle::LabelArena& arena) {
  try {
    oracle::validate_arena(arena);
  } catch (const std::runtime_error& error) {
    PATHSEP_ASSERT(false, error.what());
  }
  for (std::size_t p = 0; p < arena.num_parts(); ++p) {
    std::size_t zero_dist = 0;
    for (std::uint64_t c = arena.parts[p].begin; c < arena.parts[p + 1].begin;
         ++c)
      if (arena.hot[c].dist == 0) ++zero_dist;
    PATHSEP_ASSERT(zero_dist <= 1, "label part ", p, " (node ",
                   arena.parts[p].node, ", path ", arena.parts[p].path(),
                   ") claims ", zero_dist, " distinct zero-distance portals");
  }

  // Decoded-distance sanity on a deterministic sample: symmetry, zero on the
  // diagonal, non-negativity. (Accuracy against the true metric is the
  // oracle test suite's job; this guards structural corruption.)
  const std::size_t n = arena.num_vertices();
  if (n == 0) return;
  const std::size_t samples = n < 64 ? n : 64;
  const std::size_t stride = n / samples == 0 ? 1 : n / samples;
  for (std::size_t i = 0; i < n; i += stride) {
    const oracle::LabelView li = arena.label(static_cast<Vertex>(i));
    PATHSEP_ASSERT(oracle::query_labels(li, li) == 0, "label of vertex ", i,
                   " decodes d(v,v) != 0");
    const std::size_t j = (i * 2654435761u + 1) % n;
    const oracle::LabelView lj = arena.label(static_cast<Vertex>(j));
    const Weight uv = oracle::query_labels(li, lj);
    const Weight vu = oracle::query_labels(lj, li);
    PATHSEP_ASSERT(uv == vu, "decoded distance asymmetric for pair (", i,
                   ",", j, "): ", uv, " vs ", vu);
    PATHSEP_ASSERT(i == j || uv > 0, "decoded distance for distinct pair (",
                   i, ",", j, ") is not positive: ", uv);
  }
}

void audit_built_labels(const oracle::LabelArena& arena,
                        const hierarchy::DecompositionTree& tree) {
  audit_labels(arena);
  for (std::size_t p = 0; p < arena.num_parts(); ++p) {
    const oracle::LabelPart& part = arena.parts[p];
    const std::uint32_t depth = tree.node(part.node).depth;
    PATHSEP_ASSERT(static_cast<std::uint32_t>(part.depth()) == depth,
                   "label part ", p, " (node ", part.node, ", path ",
                   part.path(), ") carries depth ", part.depth(),
                   ", its node sits at depth ", depth);
  }
  for (std::size_t p = 0; p < arena.num_parts(); ++p)
    for (std::uint64_t c = arena.parts[p].begin + 1;
         c < arena.parts[p + 1].begin; ++c) {
      const oracle::HotEntry& prev = arena.hot[c - 1];
      const oracle::HotEntry& cur = arena.hot[c];
      PATHSEP_ASSERT(prev.dist - prev.prefix > cur.dist - cur.prefix &&
                         prev.dist + prev.prefix < cur.dist + cur.prefix,
                     "label part ", p, " (node ", arena.parts[p].node,
                     ", path ", arena.parts[p].path(), ") keeps dominated ",
                     "connection ", c - 1 - arena.parts[p].begin, " or ",
                     c - arena.parts[p].begin);
    }
}

void audit_connections(const hierarchy::DecompositionNode& node,
                       const oracle::NodeConnections& conns) {
  PATHSEP_ASSERT(conns.paths.size() == node.paths.size(),
                 "connection lists cover ", conns.paths.size(),
                 " paths, node has ", node.paths.size());
  const std::size_t n = node.graph.num_vertices();
  for (std::size_t pi = 0; pi < conns.paths.size(); ++pi) {
    const hierarchy::NodePath& path = node.paths[pi];
    const std::vector<std::size_t>& offsets = conns.paths[pi].offsets;
    PATHSEP_ASSERT(offsets.size() == n + 1 && offsets.front() == 0 &&
                       offsets.back() == conns.paths[pi].entries.size() &&
                       std::is_sorted(offsets.begin(), offsets.end()),
                   "path ", pi, " connection offsets do not cover ", n,
                   " vertices and ", conns.paths[pi].entries.size(),
                   " connections");
    for (Vertex v = 0; v < n; ++v) {
      const std::span<const Connection> list = conns.list(pi, v);
      for (std::size_t ci = 0; ci < list.size(); ++ci) {
        const Connection& conn = list[ci];
        PATHSEP_ASSERT(conn.path_index < path.verts.size(), "path ", pi,
                       " vertex ", v, " connection ", ci, " portal index ",
                       conn.path_index, " out of range");
        PATHSEP_ASSERT(conn.prefix == path.prefix[conn.path_index], "path ",
                       pi, " vertex ", v, " connection ", ci,
                       " prefix does not match the path's prefix sums");
        PATHSEP_ASSERT(std::isfinite(conn.dist) && conn.dist >= 0, "path ",
                       pi, " vertex ", v, " connection ", ci,
                       " invalid distance ", conn.dist);
        // Portal monotonicity: strictly increasing along the path.
        if (ci > 0)
          PATHSEP_ASSERT(list[ci - 1].path_index < conn.path_index, "path ",
                         pi, " vertex ", v,
                         " portal indices not strictly increasing at ", ci);
        const Vertex portal = path.verts[conn.path_index];
        if (conn.next_hop == graph::kInvalidVertex) {
          PATHSEP_ASSERT(portal == v && conn.dist == 0, "path ", pi,
                         " vertex ", v, " connection ", ci,
                         " has no next hop but is not its own portal");
        } else {
          PATHSEP_ASSERT(portal != v, "path ", pi, " vertex ", v,
                         " is its own portal but stores next hop ",
                         conn.next_hop);
          PATHSEP_ASSERT(conn.next_hop < n, "path ", pi, " vertex ", v,
                         " next hop ", conn.next_hop, " out of range");
          PATHSEP_ASSERT(node.graph.has_edge(v, conn.next_hop), "path ", pi,
                         " vertex ", v, " next hop ", conn.next_hop,
                         " is not a neighbor");
        }
      }
    }
  }
}

}  // namespace pathsep::check
