#include "check/audit_routing.hpp"

#include <cmath>

#include "check/check.hpp"

namespace pathsep::check {

using graph::Vertex;
using graph::Weight;
using hierarchy::NodePath;
using oracle::Connection;

void audit_routing_tables(const hierarchy::DecompositionTree& tree,
                          const oracle::LabelArena& labels) {
  PATHSEP_ASSERT(labels.num_vertices() == tree.root_graph().num_vertices(),
                 "routing tables cover ", labels.num_vertices(),
                 " vertices, graph has ", tree.root_graph().num_vertices());
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    const auto& chain = tree.chain(v);
    const oracle::LabelView label = labels.label(v);
    for (std::size_t pi = 0; pi < label.num_parts(); ++pi) {
      const oracle::LabelPart& part = label.part(pi);
      PATHSEP_ASSERT(part.node >= 0 &&
                         static_cast<std::size_t>(part.node) <
                             tree.nodes().size(),
                     "vertex ", v, " references unknown node ", part.node);
      const hierarchy::DecompositionNode& node = tree.node(part.node);
      PATHSEP_ASSERT(part.path() >= 0 &&
                         static_cast<std::size_t>(part.path()) <
                             node.paths.size(),
                     "vertex ", v, " references unknown path ", part.path(),
                     " of node ", part.node);
      const NodePath& path = node.paths[static_cast<std::size_t>(part.path())];

      // The vertex's chain must visit the node (else the local next-hop ids
      // are meaningless to it).
      Vertex local = graph::kInvalidVertex;
      for (const auto& [nid, l] : chain)
        if (nid == part.node) local = l;
      PATHSEP_ASSERT(local != graph::kInvalidVertex, "vertex ", v,
                     " stores a table for node ", part.node,
                     " that its chain never visits");

      // Vertices removed by stages strictly before the path's stage are
      // outside the residual graph J; hops into them are unroutable.
      std::vector<bool> removed(node.graph.num_vertices(), false);
      for (const NodePath& p : node.paths)
        if (p.stage < path.stage)
          for (Vertex u : p.verts) removed[u] = true;
      PATHSEP_ASSERT(!removed[local], "vertex ", v,
                     " has connections on node ", part.node, " path ",
                     part.path(), " but is removed before that stage");

      for (std::size_t ci = 0; ci < label.hot(pi).size(); ++ci) {
        const Connection conn = label.connection(pi, ci);
        PATHSEP_ASSERT(conn.path_index < path.verts.size(), "vertex ", v,
                       " node ", part.node, " path ", part.path(),
                       " portal index ", conn.path_index, " out of range");
        const Vertex portal = path.verts[conn.path_index];
        if (conn.next_hop == graph::kInvalidVertex) {
          PATHSEP_ASSERT(portal == local && conn.dist == 0, "vertex ", v,
                         " connection ", ci, " on node ", part.node,
                         " has no next hop yet is not its own portal");
          continue;
        }
        PATHSEP_ASSERT(conn.next_hop < node.graph.num_vertices(), "vertex ",
                       v, " next hop ", conn.next_hop,
                       " out of range at node ", part.node);
        PATHSEP_ASSERT(!removed[conn.next_hop], "vertex ", v, " next hop ",
                       conn.next_hop, " at node ", part.node,
                       " was removed by an earlier stage — unroutable");
        const Weight w = node.graph.edge_weight(local, conn.next_hop);
        PATHSEP_ASSERT(w != graph::kInfiniteWeight, "vertex ", v,
                       " next hop ", conn.next_hop, " at node ", part.node,
                       " is not adjacent — closure violated");
        // The advertised distance must at least cover the first hop.
        PATHSEP_ASSERT(conn.dist + 1e-9 >= w, "vertex ", v, " connection ",
                       ci, " at node ", part.node, " advertises distance ",
                       conn.dist, " below its first hop's weight ", w);
      }
    }
  }
}

}  // namespace pathsep::check
