// Umbrella header for the deep invariant validators — one entry point per
// subsystem. Producing modules include only their own audit_*.hpp and wrap
// the call in PATHSEP_AUDIT(...); tests and tools that want everything
// include this.
//
//   audit_graph          graph/        CSR symmetry, ordering, weight sanity
//   audit_separator      separator/    Definition 1 (P1 shortest paths, P3
//                                      balance)
//   audit_flow_cut       flow/         max-flow/min-cut duality of every
//                                      cutter-produced cut
//   audit_decomposition  hierarchy/    cover & disjointness, links, chains
//   audit_labels         oracle/       label well-formedness + decoded
//                                      distance symmetry
//   audit_built_labels   oracle/       audit_labels + tree depths in the
//                                      part headers + no dominated
//                                      connection (build output only)
//   audit_connections    oracle/       ε-portal monotonicity & next hops
//   audit_routing_tables routing/      next-hop closure of the tables
//   audit_result_cache   service/      key canonicality and set placement,
//                                      recency-ordered ways, legal values
//   audit_thread_pool    service/      queue/worker state sanity
#pragma once

#include "check/audit_flow.hpp"       // IWYU pragma: export
#include "check/audit_graph.hpp"      // IWYU pragma: export
#include "check/audit_hierarchy.hpp"  // IWYU pragma: export
#include "check/audit_oracle.hpp"     // IWYU pragma: export
#include "check/audit_routing.hpp"    // IWYU pragma: export
#include "check/audit_separator.hpp"  // IWYU pragma: export
#include "check/audit_service.hpp"    // IWYU pragma: export
#include "check/check.hpp"            // IWYU pragma: export
