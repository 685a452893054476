// Umbrella header for the pathsep library — object location using k-path
// separators (Abraham & Gavoille, PODC 2006).
//
// Typical use:
//
//   #include "pathsep.hpp"
//   using namespace pathsep;
//
//   util::Rng rng(1);
//   auto gg = graph::random_apollonian(10'000, rng);          // planar input
//   separator::PlanarCycleSeparator finder(gg.positions);     // Thm 1 base
//   hierarchy::DecompositionTree tree(gg.graph, finder);      // §4 tree
//   oracle::PathOracle oracle(tree, /*epsilon=*/0.1);         // Thm 2
//   double d = oracle.query(17, 4242);                        // (1+eps)-approx
//
// Layers (each usable on its own):
//   graph/      weighted CSR graphs, generators for every family in the paper
//   sssp/       Dijkstra, BFS, SP trees, metrics
//   embed/      planar rotation systems, triangulation, dual trees
//   treedec/    tree decompositions, Lemma 1 center bags
//   separator/  k-path separators (Definition 1) + validation
//   flow/       max-flow separator backend: unit-capacity Dinic over a
//               reusable arena, band-growth cutter with Pareto fronts,
//               inertial orderings, FlowSeparator + finder registry
//   hierarchy/  the recursive decomposition tree of §4
//   oracle/     (1+eps) distance oracle & labels (Thm 2), TZ/APSP baselines
//   routing/    stretch-(1+eps) compact routing
//   smallworld/ Theorem 3 augmentation, Claim 1 landmarks, Kleinberg baseline
//   doubling/   (k,alpha)-doubling separators & oracle (Thm 8)
//   obs/        observability: metrics registry (counters/gauges/latency
//               histograms, labeled families), hierarchical trace spans,
//               JSON + Prometheus exporters, oracle space reports
//   service/    serving layer: shard-per-core query engine with a 4-way
//               result cache per shard, oracle snapshots on disk, wire
//               protocol
#pragma once

#include "doubling/dimension.hpp"
#include "doubling/doubling_oracle.hpp"
#include "doubling/doubling_separator.hpp"
#include "doubling/nets.hpp"
#include "embed/dual.hpp"
#include "embed/embedding.hpp"
#include "flow/cutter.hpp"
#include "flow/flow_separator.hpp"
#include "flow/inertial.hpp"
#include "flow/max_flow.hpp"
#include "flow/registry.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "minorfree/almost_embedding.hpp"
#include "minorfree/apex_separator.hpp"
#include "minorfree/vortex.hpp"
#include "minorfree/vortex_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "oracle/exact_oracle.hpp"
#include "oracle/labels.hpp"
#include "oracle/path_oracle.hpp"
#include "oracle/portals.hpp"
#include "oracle/serialize.hpp"
#include "oracle/thorup_zwick.hpp"
#include "routing/simulator.hpp"
#include "routing/tables.hpp"
#include "separator/finders.hpp"
#include "service/result_cache.hpp"
#include "service/sharded_engine.hpp"
#include "service/snapshot.hpp"
#include "separator/path_separator.hpp"
#include "separator/validate.hpp"
#include "separator/weighted.hpp"
#include "smallworld/augmentation.hpp"
#include "smallworld/greedy_router.hpp"
#include "smallworld/kleinberg.hpp"
#include "smallworld/landmarks.hpp"
#include "smallworld/nearest_contact.hpp"
#include "sssp/alt.hpp"
#include "sssp/apsp.hpp"
#include "sssp/bidirectional.hpp"
#include "sssp/bfs.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/metrics.hpp"
#include "sssp/sp_tree.hpp"
#include "treedec/center.hpp"
#include "treedec/clique_weight.hpp"
#include "treedec/tree_decomposition.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "util/union_find.hpp"
