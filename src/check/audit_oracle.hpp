// Deep invariant audit of distance labels and ε-portal connections.
#pragma once

#include "oracle/labels.hpp"
#include "oracle/portals.hpp"

namespace pathsep::check {

/// Well-formedness of an oracle's labels: oracle::validate_arena's
/// structural rules (offsets, sorted parts, non-empty prefix-sorted
/// connection lists, finite non-negative values), at most one zero-distance
/// (on-path) connection per part, then decoded-distance sanity on a
/// deterministic sample of pairs: query(u,u) == 0, query(u,v) ==
/// query(v,u), and no decoded distance between distinct vertices is <= 0.
void audit_labels(const oracle::LabelArena& arena);

/// audit_labels plus what the build from `tree` guarantees and a loaded
/// snapshot need not: every part's depth is its tree node's depth, and
/// (oracle::drop_dominated) no connection is dominated under the tie rule,
/// i.e. along every part dist − prefix strictly falls and dist + prefix
/// strictly rises.
void audit_built_labels(const oracle::LabelArena& arena,
                        const hierarchy::DecompositionTree& tree);

/// Portal monotonicity for one node's connection lists: per (path, vertex),
/// portal indices strictly increase and prefixes match the path's prefix
/// sums; distances are finite, >= 0, and zero exactly when the vertex is the
/// portal; next hops are adjacent in the node graph.
void audit_connections(const hierarchy::DecompositionNode& node,
                       const oracle::NodeConnections& conns);

}  // namespace pathsep::check
