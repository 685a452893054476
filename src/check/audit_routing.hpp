// Deep invariant audit of the routing scheme's distributed tables.
#pragma once

#include "hierarchy/decomposition_tree.hpp"
#include "oracle/labels.hpp"

namespace pathsep::check {

/// Next-hop closure of the per-connection routing tables: for every vertex,
/// every label part must reference a real (node, path) of `tree` that the
/// vertex's chain visits, every portal index must be on that path, and every
/// stored next hop must be a neighbor of the vertex in the node's residual
/// graph (not removed by an earlier stage) — i.e. a packet following the
/// table can always take the advertised hop. Zero-distance connections must
/// be their own portal and carry no hop.
void audit_routing_tables(const hierarchy::DecompositionTree& tree,
                          const oracle::LabelArena& labels);

}  // namespace pathsep::check
