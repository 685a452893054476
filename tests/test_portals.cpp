#include "oracle/portals.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "sssp/dijkstra.hpp"

namespace pathsep::oracle {
namespace {

std::vector<Weight> unit_prefix(std::size_t len) {
  std::vector<Weight> prefix(len);
  for (std::size_t i = 0; i < len; ++i) prefix[i] = static_cast<Weight>(i);
  return prefix;
}

TEST(EpsilonLadder, ContainsAnchor) {
  const auto prefix = unit_prefix(20);
  for (std::uint32_t anchor : {0u, 7u, 19u}) {
    const auto ladder = epsilon_ladder(prefix, anchor, 3.0, 0.5);
    EXPECT_NE(std::find(ladder.begin(), ladder.end(), anchor), ladder.end());
  }
}

TEST(EpsilonLadder, ZeroDistanceIsJustTheAnchor) {
  const auto prefix = unit_prefix(30);
  EXPECT_EQ(epsilon_ladder(prefix, 11, 0.0, 0.25),
            (std::vector<std::uint32_t>{11}));
}

TEST(EpsilonLadder, SortedAndUnique) {
  const auto prefix = unit_prefix(100);
  const auto ladder = epsilon_ladder(prefix, 40, 2.5, 0.3);
  for (std::size_t i = 1; i < ladder.size(); ++i)
    EXPECT_LT(ladder[i - 1], ladder[i]);
}

TEST(EpsilonLadder, RejectsBadEpsilon) {
  const auto prefix = unit_prefix(10);
  EXPECT_THROW(epsilon_ladder(prefix, 2, 1.0, 0.0), std::invalid_argument);
}

// The covering property the (1+eps) query bound rests on: every path vertex
// x has a ladder vertex p with d_Q(p, x) <= (eps/2) * max(d, d_Q(anchor,x)-d).
class LadderCovering
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LadderCovering, EveryPathVertexIsCovered) {
  const auto [d, epsilon] = GetParam();
  const auto prefix = unit_prefix(400);
  for (std::uint32_t anchor : {0u, 13u, 200u, 399u}) {
    const auto ladder = epsilon_ladder(prefix, anchor, d, epsilon);
    for (std::uint32_t x = 0; x < prefix.size(); ++x) {
      const double y = std::abs(prefix[x] - prefix[anchor]);
      double best = std::numeric_limits<double>::infinity();
      for (std::uint32_t p : ladder)
        best = std::min(best, std::abs(prefix[p] - prefix[x]));
      EXPECT_LE(best, epsilon / 2.0 * std::max(d, y - d) + 1e-9)
          << "anchor " << anchor << " x " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LadderCovering,
    ::testing::Combine(::testing::Values(0.7, 3.0, 25.0),
                       ::testing::Values(0.1, 0.5, 1.0)));

TEST(EpsilonLadder, SizeGrowsOnlyLogarithmicallyWithLength) {
  const double d = 2.0, eps = 0.5;
  const auto small = epsilon_ladder(unit_prefix(100), 0, d, eps);
  const auto large = epsilon_ladder(unit_prefix(10000), 0, d, eps);
  // 100x more path vertices must cost only ~log-factor more portals.
  EXPECT_LE(large.size(), small.size() + 40);
}

TEST(Claim1Ladder, ZeroDistanceDegenerates) {
  EXPECT_EQ(claim1_ladder(unit_prefix(9), 4, 0.0, 64.0),
            (std::vector<std::uint32_t>{4}));
}

TEST(Claim1Ladder, CoversNearAndFarScales) {
  const auto prefix = unit_prefix(1000);
  const double d = 3.0;
  const auto ladder = claim1_ladder(prefix, 0, d, 1000.0);
  // Near scales: first vertex past (i/2)*d for i <= 10.
  for (int i = 0; i <= 10; ++i) {
    const double target = i / 2.0 * d;
    bool found = false;
    for (std::uint32_t p : ladder)
      if (prefix[p] >= target - 1e-9 && prefix[p] < target + 1.0) found = true;
    EXPECT_TRUE(found) << "near scale " << i;
  }
  // Geometric scales up to log Delta.
  for (int i = 0; i <= 8; ++i) {
    const double target = std::ldexp(d, i);
    if (target > prefix.back()) break;
    bool found = false;
    for (std::uint32_t p : ladder)
      if (prefix[p] >= target - 1e-9 && prefix[p] < target + 1.0) found = true;
    EXPECT_TRUE(found) << "geometric scale " << i;
  }
}

TEST(Claim1Ladder, SizeIsLogarithmicInAspectRatio) {
  const auto prefix = unit_prefix(100000);
  const auto ladder = claim1_ladder(prefix, 0, 1.0, 1e5);
  EXPECT_LE(ladder.size(), 2u * (11 + 18) + 1);
}

// ---- projections and connections against brute force ----------------------

hierarchy::DecompositionTree grid_tree(std::size_t side) {
  static std::vector<graph::GridGraph> keep;  // keep graphs alive
  keep.push_back(graph::grid(side, side));
  return hierarchy::DecompositionTree(
      keep.back().graph, separator::GridLineSeparator(side, side));
}

TEST(Projections, MatchPerVertexDijkstra) {
  const auto tree = grid_tree(6);
  const auto& root = tree.node(0);
  const auto projections = compute_projections(root);
  ASSERT_EQ(projections.size(), root.paths.size());
  const auto& path = root.paths[0];
  const auto& proj = projections[0];
  for (Vertex v = 0; v < root.graph.num_vertices(); ++v) {
    Weight best = graph::kInfiniteWeight;
    const sssp::ShortestPaths sp = sssp::dijkstra(root.graph, v);
    for (Vertex q : path.verts) best = std::min(best, sp.dist[q]);
    EXPECT_DOUBLE_EQ(proj.dist[v], best);
    // The anchor realizes the projection distance.
    EXPECT_DOUBLE_EQ(sp.dist[path.verts[proj.anchor[v]]], best);
  }
}

TEST(Connections, DistancesAreExactResidualDistances) {
  util::Rng rng(3);
  const auto gg = graph::random_apollonian(80, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  const auto& root = tree.node(0);
  const NodeConnections nc = compute_connections(root, 0.5);
  for (std::size_t pi = 0; pi < root.paths.size(); ++pi) {
    const auto& path = root.paths[pi];
    for (Vertex v = 0; v < root.graph.num_vertices(); ++v) {
      const sssp::ShortestPaths sp = sssp::dijkstra(root.graph, v);
      for (const Connection& c : nc.list(pi, v)) {
        EXPECT_NEAR(c.dist, sp.dist[path.verts[c.path_index]], 1e-9);
        EXPECT_DOUBLE_EQ(c.prefix, path.prefix[c.path_index]);
      }
    }
  }
}

TEST(Connections, SortedByPrefixAndSelfConnectionOnPath) {
  const auto tree = grid_tree(8);
  const auto& root = tree.node(0);
  const NodeConnections nc = compute_connections(root, 0.25);
  const auto& path = root.paths[0];
  for (Vertex v = 0; v < root.graph.num_vertices(); ++v) {
    const auto conns = nc.list(0, v);
    for (std::size_t i = 1; i < conns.size(); ++i)
      EXPECT_LE(conns[i - 1].prefix, conns[i].prefix);
  }
  // A vertex on the path connects to itself at distance 0.
  const Vertex on_path = path.verts[2];
  ASSERT_EQ(nc.list(0, on_path).size(), 1u);
  EXPECT_DOUBLE_EQ(nc.list(0, on_path)[0].dist, 0.0);
  EXPECT_EQ(nc.list(0, on_path)[0].path_index, 2u);
}

TEST(Connections, NextHopIsFirstEdgeTowardPortal) {
  const auto tree = grid_tree(5);
  const auto& root = tree.node(0);
  const NodeConnections nc = compute_connections(root, 0.5);
  for (Vertex v = 0; v < root.graph.num_vertices(); ++v) {
    for (const Connection& c : nc.list(0, v)) {
      const Vertex portal = root.paths[0].verts[c.path_index];
      if (v == portal) {
        EXPECT_EQ(c.next_hop, graph::kInvalidVertex);
      } else {
        ASSERT_NE(c.next_hop, graph::kInvalidVertex);
        EXPECT_TRUE(root.graph.has_edge(v, c.next_hop));
        // Moving to next_hop makes progress toward the portal.
        const Weight via = root.graph.edge_weight(v, c.next_hop) +
                           sssp::distance(root.graph, c.next_hop, portal);
        EXPECT_NEAR(via, c.dist, 1e-9);
      }
    }
  }
}

TEST(Connections, ConnectionCountIsModest) {
  const auto tree = grid_tree(12);
  const auto& root = tree.node(0);
  const NodeConnections nc = compute_connections(root, 0.5);
  std::size_t worst = 0;
  for (Vertex v = 0; v < root.graph.num_vertices(); ++v)
    worst = std::max(worst, nc.list(0, v).size());
  // O(1/eps * log Delta): generous absolute cap for a 12x12 grid.
  EXPECT_LE(worst, 40u);
}

}  // namespace
}  // namespace pathsep::oracle
