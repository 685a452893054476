#include "flow/flow_separator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/audit_flow.hpp"
#include "flow/cutter.hpp"
#include "flow/max_flow.hpp"
#include "flow/registry.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "oracle/labels.hpp"
#include "oracle/path_oracle.hpp"
#include "oracle/serialize.hpp"
#include "separator/validate.hpp"
#include "sssp/dijkstra.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pathsep::flow {
namespace {

using graph::Graph;
using graph::Vertex;

std::vector<Vertex> all_vertices(const Graph& g) {
  std::vector<Vertex> members(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) members[v] = v;
  return members;
}

/// True when removing `blocked` disconnects s from t in g.
bool separates(const Graph& g, Vertex s, Vertex t,
               const std::vector<Vertex>& blocked) {
  std::vector<bool> removed(g.num_vertices(), false);
  for (const Vertex v : blocked) removed[v] = true;
  if (removed[s] || removed[t]) return true;
  std::vector<Vertex> queue{s};
  std::vector<bool> seen(g.num_vertices(), false);
  seen[s] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (queue[head] == t) return false;
    for (const graph::Arc& arc : g.neighbors(queue[head]))
      if (!removed[arc.to] && !seen[arc.to]) {
        seen[arc.to] = true;
        queue.push_back(arc.to);
      }
  }
  return true;
}

/// Smallest vertex cut separating s from t, by exhaustive search over
/// subsets (s, t excluded). Exponential — tiny graphs only.
std::size_t brute_force_min_cut(const Graph& g, Vertex s, Vertex t) {
  std::vector<Vertex> candidates;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (v != s && v != t) candidates.push_back(v);
  const std::size_t n = candidates.size();
  std::size_t best = n + 1;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const auto bits = static_cast<std::size_t>(__builtin_popcount(mask));
    if (bits >= best) continue;
    std::vector<Vertex> blocked;
    for (std::size_t i = 0; i < n; ++i)
      if ((mask >> i) & 1u) blocked.push_back(candidates[i]);
    if (separates(g, s, t, blocked)) best = bits;
  }
  return best;
}

TEST(UnitFlowNetwork, MatchesBruteForceMinCut) {
  util::Rng rng(7);
  std::vector<Graph> graphs;
  graphs.push_back(graph::grid(3, 3).graph);
  graphs.push_back(graph::grid(2, 5).graph);
  graphs.push_back(graph::random_ktree(10, 3, rng));
  for (const Graph& g : graphs) {
    const std::vector<Vertex> members = all_vertices(g);
    const std::vector<bool> removed;
    const Vertex s = 0;
    const auto t = static_cast<Vertex>(g.num_vertices() - 1);
    if (separates(g, s, t, {})) continue;  // disconnected sample
    bool adjacent = false;
    for (const graph::Arc& arc : g.neighbors(s)) adjacent |= arc.to == t;

    UnitFlowNetwork net(g, members, removed, thread_arena());
    net.make_source(s);
    net.make_target(t);
    const AugmentStatus status = net.augment_to_max(1000);
    if (adjacent) {
      EXPECT_EQ(status, AugmentStatus::kUncuttable);
      continue;
    }
    ASSERT_EQ(status, AugmentStatus::kMaxFlow);
    EXPECT_EQ(net.flow_value(), brute_force_min_cut(g, s, t));

    for (const bool source_side : {true, false}) {
      const UnitFlowNetwork::SideCut cut =
          source_side ? net.source_side_cut() : net.target_side_cut();
      EXPECT_EQ(cut.cut.size(), net.flow_value());
      EXPECT_TRUE(separates(g, s, t, cut.cut));
      EXPECT_TRUE(std::is_sorted(cut.cut.begin(), cut.cut.end()));
      check::audit_flow_cut(net, cut, source_side);
    }
  }
}

TEST(UnitFlowNetwork, UncuttableWhenTerminalsTouch) {
  const Graph g = graph::grid(2, 2).graph;
  const std::vector<Vertex> members = all_vertices(g);
  const std::vector<bool> removed;
  UnitFlowNetwork net(g, members, removed, thread_arena());
  net.make_source(0);
  net.make_target(1);  // grid neighbor of 0
  EXPECT_TRUE(net.touches_opposite(0, /*source=*/true));
  EXPECT_EQ(net.augment_to_max(1000), AugmentStatus::kUncuttable);
}

TEST(UnitFlowNetwork, FlowLimitAborts) {
  const Graph g = graph::grid(4, 4).graph;
  const std::vector<Vertex> members = all_vertices(g);
  const std::vector<bool> removed;
  UnitFlowNetwork net(g, members, removed, thread_arena());
  net.make_source(0);
  net.make_target(15);
  EXPECT_EQ(net.augment_to_max(0), AugmentStatus::kLimitExceeded);
}

TEST(UnitFlowNetwork, IncrementalTerminalGrowth) {
  // Adding terminals between augment calls keeps the flow feasible and can
  // only raise it: the audit validates the final state end to end.
  const Graph g = graph::grid(6, 6).graph;
  const std::vector<Vertex> members = all_vertices(g);
  const std::vector<bool> removed;
  UnitFlowNetwork net(g, members, removed, thread_arena());
  net.make_source(0);
  net.make_target(35);
  ASSERT_EQ(net.augment_to_max(1000), AugmentStatus::kMaxFlow);
  const std::size_t first = net.flow_value();
  net.make_source(6);   // second row, first column
  net.make_target(29);  // fifth row, last column
  ASSERT_EQ(net.augment_to_max(1000), AugmentStatus::kMaxFlow);
  EXPECT_GE(net.flow_value(), first);
  check::audit_flow_cut(net, net.source_side_cut(), true);
  check::audit_flow_cut(net, net.target_side_cut(), false);
}

CutCandidate candidate(std::size_t cut_size, std::size_t near,
                       std::size_t far) {
  CutCandidate c;
  c.cut.assign(cut_size, 0);
  for (std::size_t i = 0; i < cut_size; ++i)
    c.cut[i] = static_cast<Vertex>(i);
  c.side_near = near;
  c.side_far = far;
  c.num_members = cut_size + near + far;
  return c;
}

TEST(ParetoFront, OfferKeepsDominanceInvariant) {
  ParetoFront front;
  EXPECT_TRUE(front.offer(candidate(5, 10, 90)));   // (5, 90)
  EXPECT_TRUE(front.offer(candidate(8, 40, 60)));   // (8, 60)
  EXPECT_FALSE(front.offer(candidate(9, 35, 65)));  // dominated by (8, 60)
  EXPECT_FALSE(front.offer(candidate(5, 9, 91)));   // tie: incumbent stays
  EXPECT_TRUE(front.offer(candidate(6, 25, 75)));   // new point (6, 75)
  EXPECT_TRUE(front.offer(candidate(7, 50, 50)));   // evicts (8, 60)
  ASSERT_EQ(front.size(), 3u);
  const auto cuts = front.cuts();
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_GT(cuts[i].cut.size(), cuts[i - 1].cut.size());
    EXPECT_LT(cuts[i].max_side(), cuts[i - 1].max_side());
  }
  EXPECT_EQ(front.best_within(80)->cut.size(), 6u);
  EXPECT_EQ(front.most_balanced()->max_side(), 50u);
  EXPECT_EQ(front.best_within(40), nullptr);
}

TEST(FlowCutter, FrontIsMonotoneOnRoadNetwork) {
  util::Rng rng(11);
  const graph::GeometricGraph gg = graph::road_network(40, 40, rng);
  const FlowSeparator finder(gg.positions);
  std::vector<Vertex> ids(gg.graph.num_vertices());
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v) ids[v] = v;
  const ParetoFront front = finder.pareto_front(gg.graph, ids);
  ASSERT_FALSE(front.empty());
  const auto cuts = front.cuts();
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    EXPECT_EQ(cuts[i].side_near + cuts[i].side_far + cuts[i].cut.size(),
              cuts[i].num_members);
    if (i == 0) continue;
    EXPECT_GT(cuts[i].cut.size(), cuts[i - 1].cut.size());
    EXPECT_LT(cuts[i].max_side(), cuts[i - 1].max_side());
  }
  // The deepest band step (45% per side) guarantees a reasonably balanced
  // candidate; find()'s outer loop closes the gap to the n/2 bound of P3.
  EXPECT_NE(front.best_within(gg.graph.num_vertices() * 7 / 10), nullptr);
}

void expect_valid_separator(const Graph& g,
                            const separator::PathSeparator& s) {
  const separator::ValidationReport report = separator::validate(g, s);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(FlowSeparator, ValidOnPerturbedGrid) {
  util::Rng rng(3);
  const graph::GeometricGraph gg = graph::road_network(32, 32, rng);
  const FlowSeparator finder(gg.positions);
  expect_valid_separator(gg.graph, finder.find(gg.graph));
}

TEST(FlowSeparator, ValidWithoutCoordinates) {
  util::Rng rng(5);
  const FlowSeparator finder;  // double-sweep ordering fallback
  const Graph ktree = graph::random_ktree(400, 4, rng);
  expect_valid_separator(ktree, finder.find(ktree));
  const Graph expander = graph::random_expander(300, 4, rng);
  expect_valid_separator(expander, finder.find(expander));
}

TEST(FlowSeparator, RegistryRoundTrip) {
  const auto finder = make_finder("flow");
  EXPECT_EQ(finder->name(), "flow");
  EXPECT_TRUE(finder->guarantees_definition1());
  EXPECT_THROW((void)make_finder("no-such-finder"), std::invalid_argument);
  EXPECT_THROW((void)make_finder("planar-cycle"), std::invalid_argument);
}

std::uint64_t label_digest(const oracle::LabelArena& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (graph::Vertex v = 0; v < labels.num_vertices(); ++v)
    for (const std::uint8_t byte : oracle::serialize_label(labels.label(v))) {
      h ^= byte;
      h *= 1099511628211ULL;
    }
  return h;
}

TEST(FlowSeparator, DeterministicAcrossThreads) {
  util::Rng rng(23);
  const graph::GeometricGraph gg = graph::road_network(24, 24, rng);
  const FlowSeparator finder(gg.positions);
  const std::size_t saved = util::threads();
  std::uint64_t first_digest = 0;
  for (const std::size_t threads : {1u, 8u}) {
    util::set_threads(threads);
    const hierarchy::DecompositionTree tree(gg.graph, finder);
    const auto labels = oracle::build_labels(tree, 0.1);
    const std::uint64_t digest = label_digest(labels);
    if (threads == 1)
      first_digest = digest;
    else
      EXPECT_EQ(digest, first_digest);
  }
  util::set_threads(saved);
}

TEST(FlowSeparator, OracleSandwichOnPerturbedGrid) {
  // End-to-end: FlowSeparator -> decomposition tree -> (1+eps) oracle. The
  // estimate must never undercut the exact Dijkstra distance and never
  // exceed it by more than the chosen stretch.
  constexpr double kEpsilon = 0.05;
  util::Rng rng(41);
  const graph::GeometricGraph gg = graph::road_network(20, 20, rng);
  const FlowSeparator finder(gg.positions);
  const hierarchy::DecompositionTree tree(gg.graph, finder);
  const oracle::PathOracle oracle(tree, kEpsilon);
  const Vertex sources[] = {0, 57, 211, 399};
  for (const Vertex s : sources) {
    const sssp::ShortestPaths truth = sssp::dijkstra(gg.graph, s);
    for (Vertex v = 0; v < gg.graph.num_vertices(); v += 7) {
      const graph::Weight est = oracle.query(s, v);
      EXPECT_GE(est, truth.dist[v] - 1e-9);
      EXPECT_LE(est, truth.dist[v] * (1 + kEpsilon) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace pathsep::flow
