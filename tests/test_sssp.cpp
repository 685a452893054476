#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>

#include "graph/generators.hpp"
#include "sssp/alt.hpp"
#include "sssp/apsp.hpp"
#include "sssp/bidirectional.hpp"
#include "sssp/bfs.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/metrics.hpp"
#include "sssp/sp_tree.hpp"
#include "sssp/workspace.hpp"

namespace pathsep::sssp {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::Vertex;
using graph::Weight;

Graph weighted_diamond() {
  //     1
  //   /   \        0-1 = 1, 1-3 = 1, 0-2 = 5, 2-3 = 1, 0-3 via top = 2.
  //  0     3
  //   \   /
  //     2
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 3, 1.0);
  b.add_edge(0, 2, 5.0);
  b.add_edge(2, 3, 1.0);
  return std::move(b).build();
}

TEST(Dijkstra, PicksCheaperOfTwoRoutes) {
  const Graph g = weighted_diamond();
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[3], 2.0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 3.0);  // through 3, not the weight-5 edge
  EXPECT_EQ(sp.parent[3], 1u);
}

TEST(Dijkstra, SourceHasZeroDistanceNoParent) {
  const ShortestPaths sp = dijkstra(weighted_diamond(), 2);
  EXPECT_DOUBLE_EQ(sp.dist[2], 0.0);
  EXPECT_EQ(sp.parent[2], graph::kInvalidVertex);
}

TEST(Dijkstra, UnreachableStaysInfinite) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_FALSE(sp.reached(2));
  EXPECT_EQ(sp.dist[2], graph::kInfiniteWeight);
}

TEST(Dijkstra, MultiSourceTakesMinimum) {
  const Graph g = graph::path_graph(7);
  const Vertex sources[] = {0, 6};
  const ShortestPaths sp = dijkstra(g, sources);
  EXPECT_DOUBLE_EQ(sp.dist[3], 3.0);
  EXPECT_DOUBLE_EQ(sp.dist[5], 1.0);
}

TEST(Dijkstra, MaskedAvoidsRemovedVertices) {
  const Graph g = graph::cycle_graph(6);
  std::vector<bool> removed(6, false);
  removed[1] = true;
  const Vertex sources[] = {0};
  const ShortestPaths sp = dijkstra_masked(g, sources, removed);
  EXPECT_DOUBLE_EQ(sp.dist[2], 4.0);  // must go the long way around
  EXPECT_FALSE(sp.reached(1));
}

TEST(Dijkstra, BoundedStopsAtRadius) {
  const Graph g = graph::path_graph(100);
  const ShortestPaths sp = dijkstra_bounded(g, 0, 5.0);
  EXPECT_TRUE(sp.reached(5));
  EXPECT_FALSE(sp.reached(90));
}

TEST(Dijkstra, PointToPointDistance) {
  EXPECT_DOUBLE_EQ(distance(weighted_diamond(), 0, 2), 3.0);
  EXPECT_DOUBLE_EQ(distance(weighted_diamond(), 1, 1), 0.0);
}

TEST(Dijkstra, ExtractPathEndpointsAndCost) {
  const Graph g = weighted_diamond();
  const ShortestPaths sp = dijkstra(g, 0);
  const std::vector<Vertex> path = extract_path(sp, 2);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 2u);
  EXPECT_DOUBLE_EQ(path_cost(g, path), sp.dist[2]);
}

TEST(Dijkstra, ExtractPathUnreachedIsEmpty) {
  GraphBuilder b(2);
  const Graph g = std::move(b).build();
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_TRUE(extract_path(sp, 1).empty());
}

TEST(PathCost, ThrowsOnNonAdjacent) {
  const Graph g = graph::path_graph(4);
  const std::vector<Vertex> bogus{0, 2};
  EXPECT_THROW(path_cost(g, bogus), std::invalid_argument);
}

TEST(Dijkstra, MatchesBfsOnUnitWeights) {
  util::Rng rng(99);
  const Graph g = graph::gnm_random(60, 150, rng);
  const ShortestPaths sp = dijkstra(g, 0);
  const BfsResult bf = bfs(g, 0);
  for (Vertex v = 0; v < 60; ++v)
    EXPECT_DOUBLE_EQ(sp.dist[v], static_cast<double>(bf.hops[v]));
}

TEST(Bfs, HopCountsOnPath) {
  const BfsResult bf = bfs(graph::path_graph(5), 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(bf.hops[v], v);
}

TEST(Bfs, MultiSource) {
  const Vertex sources[] = {0, 4};
  const BfsResult bf = bfs(graph::path_graph(5), sources);
  EXPECT_EQ(bf.hops[2], 2u);
  EXPECT_EQ(bf.hops[3], 1u);
}

// Property test: Dijkstra distances satisfy the triangle inequality over
// edges and agree with a Bellman-Ford style relaxation fixpoint.
class DijkstraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraProperty, FixpointOnRandomWeightedGraph) {
  util::Rng rng(GetParam());
  const Graph g = graph::gnm_random(40, 100, rng, true,
                                    graph::WeightSpec::uniform_real(0.1, 9.0));
  const ShortestPaths sp = dijkstra(g, 3);
  for (Vertex u = 0; u < 40; ++u) {
    for (const graph::Arc& a : g.neighbors(u)) {
      EXPECT_LE(sp.dist[a.to], sp.dist[u] + a.weight + 1e-9);
    }
    if (u != 3 && sp.reached(u)) {
      // Some edge must be tight (the parent edge).
      const Vertex p = sp.parent[u];
      EXPECT_NEAR(sp.dist[u], sp.dist[p] + g.edge_weight(p, u), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Apsp, MatchesPairwiseDijkstra) {
  util::Rng rng(7);
  const Graph g = graph::gnm_random(25, 60, rng, true,
                                    graph::WeightSpec::uniform_real(0.5, 3.0));
  const DistanceMatrix m(g);
  for (Vertex u = 0; u < 25; u += 5) {
    const ShortestPaths sp = dijkstra(g, u);
    for (Vertex v = 0; v < 25; ++v) EXPECT_DOUBLE_EQ(m.at(u, v), sp.dist[v]);
  }
  EXPECT_EQ(m.size_in_words(), 25u * 25u);
}

TEST(Apsp, MinMaxDistances) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 2, 3.0);
  const DistanceMatrix m(std::move(b).build());
  EXPECT_DOUBLE_EQ(m.max_distance(), 5.0);
  EXPECT_DOUBLE_EQ(m.min_distance(), 2.0);
}

TEST(SpTreeTest, AncestryAndDepth) {
  const Graph g = graph::path_graph(6);
  const SpTree t(g, 0);
  EXPECT_TRUE(t.is_ancestor(0, 5));
  EXPECT_TRUE(t.is_ancestor(2, 4));
  EXPECT_FALSE(t.is_ancestor(4, 2));
  EXPECT_TRUE(t.is_ancestor(3, 3));
  EXPECT_EQ(t.depth(5), 5u);
}

TEST(SpTreeTest, RootPathOrder) {
  const Graph g = graph::path_graph(4);
  const SpTree t(g, 0);
  EXPECT_EQ(t.root_path(3), (std::vector<Vertex>{0, 1, 2, 3}));
  EXPECT_EQ(t.root_path(0), (std::vector<Vertex>{0}));
}

TEST(SpTreeTest, MonotonePathBothDirections) {
  const Graph g = graph::path_graph(5);
  const SpTree t(g, 0);
  EXPECT_EQ(t.monotone_path(1, 3), (std::vector<Vertex>{1, 2, 3}));
  EXPECT_EQ(t.monotone_path(3, 1), (std::vector<Vertex>{3, 2, 1}));
}

TEST(SpTreeTest, MonotonePathRejectsUnrelated) {
  const Graph g = graph::star_graph(4);
  const SpTree t(g, 0);
  EXPECT_THROW(t.monotone_path(1, 2), std::invalid_argument);
}

TEST(SpTreeTest, PreorderStartsAtRootAndCoversAll) {
  util::Rng rng(5);
  const Graph g = graph::random_tree(30, rng);
  const SpTree t(g, 7);
  EXPECT_EQ(t.preorder().front(), 7u);
  EXPECT_EQ(t.preorder().size(), 30u);
}

TEST(SpTreeTest, RootPathsAreShortestPaths) {
  util::Rng rng(21);
  const auto gg = graph::random_apollonian(60, rng);
  const SpTree t(gg.graph, 0);
  for (Vertex v : {5u, 17u, 42u, 59u}) {
    const auto path = t.root_path(v);
    EXPECT_NEAR(path_cost(gg.graph, path), t.dist()[v], 1e-9);
    EXPECT_NEAR(t.dist()[v], distance(gg.graph, 0, v), 1e-9);
  }
}

TEST(Bidirectional, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const Graph g = graph::gnm_random(
        80, 200, rng, true, graph::WeightSpec::uniform_real(0.2, 5.0));
    for (Vertex s = 0; s < 80; s += 11)
      for (Vertex t = 0; t < 80; t += 13) {
        const auto result = bidirectional_distance(g, s, t);
        EXPECT_NEAR(result.distance, distance(g, s, t), 1e-9);
      }
  }
}

TEST(Bidirectional, TrivialAndDisconnectedCases) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 2.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(bidirectional_distance(g, 1, 1).distance, 0.0);
  EXPECT_DOUBLE_EQ(bidirectional_distance(g, 0, 1).distance, 2.0);
  EXPECT_EQ(bidirectional_distance(g, 0, 2).distance, graph::kInfiniteWeight);
}

TEST(Bidirectional, SettlesFewerVerticesThanFullSearch) {
  const graph::GridGraph gg = graph::grid(40, 40);
  const auto result = bidirectional_distance(gg.graph, gg.at(0, 0), gg.at(3, 3));
  EXPECT_DOUBLE_EQ(result.distance, 6.0);
  EXPECT_LT(result.settled, 1600u / 2);  // nearby targets stay local
}

TEST(Alt, ExactOnRandomWeightedGraphs) {
  util::Rng rng(5);
  const Graph g = graph::gnm_random(100, 260, rng, true,
                                    graph::WeightSpec::uniform_real(0.3, 4.0));
  util::Rng lrng(1);
  const AltOracle alt(g, 4, lrng);
  for (Vertex s = 0; s < 100; s += 13)
    for (Vertex t = 0; t < 100; t += 17)
      EXPECT_NEAR(alt.query(s, t), distance(g, s, t), 1e-9);
}

TEST(Alt, PotentialPrunesTheSearchOnGrids) {
  const graph::GridGraph gg = graph::grid(30, 30);
  util::Rng lrng(2);
  const AltOracle alt(gg.graph, 6, lrng);
  const Vertex s = gg.at(2, 2), t = gg.at(5, 5);
  EXPECT_DOUBLE_EQ(alt.query(s, t), 6.0);
  // Plain Dijkstra settles nearly every vertex closer than d(s,t); the
  // landmark potential should cut that down substantially.
  EXPECT_LT(alt.last_settled(), 200u);
}

TEST(Alt, HandlesTrivialAndDisconnected) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 1.5);
  const Graph g = std::move(b).build();
  util::Rng lrng(3);
  const AltOracle alt(g, 2, lrng);
  EXPECT_EQ(alt.query(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(alt.query(0, 1), 1.5);
  EXPECT_EQ(alt.query(0, 2), graph::kInfiniteWeight);
}

TEST(Alt, SizeAccountsLandmarkVectors) {
  const Graph g = graph::path_graph(50);
  util::Rng lrng(4);
  const AltOracle alt(g, 3, lrng);
  EXPECT_EQ(alt.num_landmarks(), 3u);
  EXPECT_EQ(alt.size_in_words(), 3u + 3u * 50);
}

// ---- DijkstraWorkspace reuse ------------------------------------------------
// One workspace serving many runs — across different graphs, sizes, and masks
// — must behave exactly like freshly-allocated ShortestPaths every time; the
// epoch-stamped lazy reset may never leak state between runs.

TEST(Workspace, InterleavedRunsMatchFreshAllocation) {
  util::Rng rng(41);
  const Graph big = graph::gnm_random(
      120, 320, rng, true, graph::WeightSpec::uniform_real(0.2, 4.0));
  const Graph small = graph::gnm_random(
      30, 70, rng, true, graph::WeightSpec::uniform_real(0.5, 2.0));
  std::vector<bool> removed(120, false);
  for (Vertex v = 0; v < 120; v += 7) removed[v] = true;

  DijkstraWorkspace ws;
  for (std::uint64_t round = 0; round < 6; ++round) {
    // Alternate graphs (shrinking then regrowing n) and masked/unmasked runs.
    const Graph& g = round % 2 == 0 ? big : small;
    const Vertex source = static_cast<Vertex>((round * 11) % g.num_vertices());
    if (round % 3 == 2) {
      const Vertex sources[] = {source};
      dijkstra_masked(big, sources, removed, ws);
      const ShortestPaths sp = dijkstra_masked(big, sources, removed);
      for (Vertex v = 0; v < big.num_vertices(); ++v) {
        EXPECT_DOUBLE_EQ(ws.dist(v), sp.dist[v]);
        EXPECT_EQ(ws.parent(v), sp.parent[v]);
      }
    } else {
      dijkstra(g, source, ws);
      const ShortestPaths sp = dijkstra(g, source);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        EXPECT_DOUBLE_EQ(ws.dist(v), sp.dist[v]);
        EXPECT_EQ(ws.parent(v), sp.parent[v]);
        EXPECT_EQ(ws.reached(v), sp.reached(v));
      }
    }
  }
}

TEST(Workspace, ExtractPathMatchesShortestPathsVariant) {
  util::Rng rng(43);
  const auto gg = graph::random_apollonian(80, rng);
  DijkstraWorkspace ws;
  dijkstra(gg.graph, 0, ws);
  const ShortestPaths sp = dijkstra(gg.graph, 0);
  for (Vertex t : {7u, 31u, 79u})
    EXPECT_EQ(extract_path(ws, t), extract_path(sp, t));
}

TEST(Workspace, UnreachedVerticesReadAsInfinite) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  const Graph g = std::move(b).build();
  DijkstraWorkspace ws;
  dijkstra(g, 0, ws);
  EXPECT_FALSE(ws.reached(3));
  EXPECT_EQ(ws.dist(3), graph::kInfiniteWeight);
  EXPECT_EQ(ws.parent(3), graph::kInvalidVertex);
  EXPECT_TRUE(extract_path(ws, 3).empty());
}

TEST(Workspace, ThreadWorkspaceIsPerThreadSingleton) {
  EXPECT_EQ(&thread_workspace(), &thread_workspace());
}

// ---- settle order ----------------------------------------------------------
// The runner's radix queue must pop in exactly the order of a binary heap on
// (dist, id): every distance, parent, anchor, reached-list position and work
// counter follows from that order. The reference below is such a heap loop,
// kept as the spec; each case runs it beside the real entry point and
// compares everything bit for bit.

struct ReferenceRun {
  std::vector<Weight> dist;
  std::vector<Vertex> parent;
  std::vector<std::uint32_t> anchor;
  std::vector<Vertex> reached;  ///< first-touch order
  DijkstraWorkspace::WorkStats work;
};

struct ReferenceQuery {
  std::span<const Vertex> sources;
  const std::vector<bool>* removed = nullptr;
  std::span<const Vertex> targets = {};
  Weight radius = graph::kInfiniteWeight;
  Vertex target = graph::kInvalidVertex;
};

ReferenceRun binary_heap_dijkstra(const Graph& g, const ReferenceQuery& q) {
  const std::size_t n = g.num_vertices();
  ReferenceRun r;
  r.dist.assign(n, graph::kInfiniteWeight);
  r.parent.assign(n, graph::kInvalidVertex);
  r.anchor.assign(n, UINT32_MAX);
  r.work.runs = 1;
  std::vector<char> is_target(n, 0);
  std::size_t targets_remaining = 0;
  for (const Vertex t : q.targets)
    if (is_target[t] == 0) {
      is_target[t] = 1;
      ++targets_remaining;
    }
  struct Item {
    Weight dist;
    Vertex v;
  };
  const auto after = [](const Item& a, const Item& b) {
    return a.dist > b.dist || (a.dist == b.dist && a.v > b.v);
  };
  std::vector<Item> heap;
  const auto touch = [&](Vertex v, Weight d, Vertex parent, std::uint32_t a) {
    if (r.dist[v] == graph::kInfiniteWeight) r.reached.push_back(v);
    r.dist[v] = d;
    r.parent[v] = parent;
    r.anchor[v] = a;
    heap.push_back({d, v});
    std::push_heap(heap.begin(), heap.end(), after);
    ++r.work.heap_pushes;
  };
  for (std::uint32_t i = 0; i < q.sources.size(); ++i)
    if (r.dist[q.sources[i]] != 0)
      touch(q.sources[i], 0, graph::kInvalidVertex, i);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const Item top = heap.back();
    heap.pop_back();
    ++r.work.heap_pops;
    if (top.dist > r.dist[top.v]) continue;
    ++r.work.settled;
    if (top.dist > q.radius || top.v == q.target) break;
    if (targets_remaining > 0 && is_target[top.v] != 0 &&
        --targets_remaining == 0)
      break;
    for (const graph::Arc& a : g.neighbors(top.v)) {
      if (q.removed && (*q.removed)[a.to]) continue;
      const Weight nd = top.dist + a.weight;
      if (nd < r.dist[a.to]) {
        touch(a.to, nd, top.v, r.anchor[top.v]);
        ++r.work.relaxed;
      }
    }
  }
  return r;
}

DijkstraWorkspace::WorkStats work_since(const DijkstraWorkspace::WorkStats& a,
                                        const DijkstraWorkspace::WorkStats& b) {
  return {b.runs - a.runs, b.settled - a.settled, b.relaxed - a.relaxed,
          b.heap_pushes - a.heap_pushes, b.heap_pops - a.heap_pops};
}

void expect_same_work(const DijkstraWorkspace::WorkStats& got,
                      const DijkstraWorkspace::WorkStats& want) {
  EXPECT_EQ(got.runs, want.runs);
  EXPECT_EQ(got.settled, want.settled);
  EXPECT_EQ(got.relaxed, want.relaxed);
  EXPECT_EQ(got.heap_pushes, want.heap_pushes);
  EXPECT_EQ(got.heap_pops, want.heap_pops);
}

/// Distances compared as bit patterns: "equal" must mean the same double.
void expect_same_tree(const DijkstraWorkspace& ws, const ReferenceRun& ref) {
  std::size_t dist_diffs = 0, parent_diffs = 0;
  for (Vertex v = 0; v < ref.dist.size(); ++v) {
    if (std::bit_cast<std::uint64_t>(ws.dist(v)) !=
        std::bit_cast<std::uint64_t>(ref.dist[v]))
      ++dist_diffs;
    if (ws.parent(v) != ref.parent[v]) ++parent_diffs;
  }
  EXPECT_EQ(dist_diffs, 0u);
  EXPECT_EQ(parent_diffs, 0u);
}

/// Every entry point the runner serves, on one graph and source set, against
/// the reference: plain, masked, projected (anchors + reached list), target
/// set, radius stop and point-to-point.
void expect_settle_order_matches(const Graph& g,
                                 std::span<const Vertex> sources,
                                 const std::vector<bool>& removed,
                                 std::span<const Vertex> targets,
                                 Weight radius) {
  DijkstraWorkspace ws;
  const auto run = [&](const ReferenceQuery& q, auto&& call) {
    const DijkstraWorkspace::WorkStats before = ws.work();
    call();
    const ReferenceRun ref = binary_heap_dijkstra(g, q);
    expect_same_tree(ws, ref);
    expect_same_work(work_since(before, ws.work()), ref.work);
    return ref;
  };
  {
    SCOPED_TRACE("dijkstra");
    run({sources}, [&] { dijkstra(g, sources, ws); });
  }
  {
    SCOPED_TRACE("dijkstra_masked");
    run({sources, &removed},
        [&] { dijkstra_masked(g, sources, removed, ws); });
  }
  {
    SCOPED_TRACE("dijkstra_project");
    const ReferenceRun ref =
        run({sources, &removed},
            [&] { dijkstra_project(g, sources, removed, ws); });
    std::size_t anchor_diffs = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      if (ws.reached(v) && ws.anchor(v) != ref.anchor[v]) ++anchor_diffs;
    EXPECT_EQ(anchor_diffs, 0u);
    const std::span<const Vertex> reached = ws.reached_list();
    EXPECT_TRUE(std::equal(reached.begin(), reached.end(), ref.reached.begin(),
                           ref.reached.end()));
  }
  {
    SCOPED_TRACE("dijkstra_masked_until");
    run({sources, &removed, targets},
        [&] { dijkstra_masked_until(g, sources, removed, targets, ws); });
  }
  DijkstraWorkspace& tws = thread_workspace();
  {
    SCOPED_TRACE("dijkstra_bounded");
    const DijkstraWorkspace::WorkStats before = tws.work();
    const ShortestPaths sp = dijkstra_bounded(g, sources[0], radius);
    const ReferenceQuery q{sources.first(1), nullptr, {}, radius};
    const ReferenceRun ref = binary_heap_dijkstra(g, q);
    EXPECT_EQ(sp.dist, ref.dist);
    EXPECT_EQ(sp.parent, ref.parent);
    expect_same_work(work_since(before, tws.work()), ref.work);
  }
  {
    SCOPED_TRACE("distance");
    const Vertex t = targets.back();
    const DijkstraWorkspace::WorkStats before = tws.work();
    const Weight d = distance(g, sources[0], t);
    const ReferenceQuery q{sources.first(1), nullptr, {},
                           graph::kInfiniteWeight, t};
    const ReferenceRun ref = binary_heap_dijkstra(g, q);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d),
              std::bit_cast<std::uint64_t>(ref.dist[t]));
    expect_same_work(work_since(before, tws.work()), ref.work);
  }
}

struct SettleCase {
  const char* name;
  Graph graph;
  std::size_t num_sources;
};

std::vector<Vertex> spread(std::size_t n, std::size_t count, util::Rng& rng) {
  std::vector<Vertex> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(static_cast<Vertex>(rng.next_below(n)));
  return out;  // duplicates kept on purpose: the runner must skip them
}

TEST(SettleOrder, RadixQueueMatchesBinaryHeapOnEveryEntryPoint) {
  util::Rng wrng(17);
  std::vector<SettleCase> cases;
  cases.push_back({"unit grid", graph::grid(48, 48).graph, 1});
  cases.push_back({"integer grid",
                   graph::grid(40, 40, graph::WeightSpec::uniform_int(1, 10),
                               &wrng).graph,
                   3});
  cases.push_back({"real grid",
                   graph::grid(40, 40, graph::WeightSpec::uniform_real(0.1, 9.0),
                               &wrng).graph,
                   3});
  cases.push_back({"unit triangulated grid",
                   graph::triangulated_grid(40, 40).graph, 2});
  cases.push_back({"integer triangulated grid",
                   graph::triangulated_grid(
                       36, 36, graph::WeightSpec::uniform_int(1, 4), &wrng)
                       .graph,
                   5});
  // Thousands of projection sources start in one key-0 batch.
  cases.push_back({"unit grid, 1200 sources", graph::grid(60, 60).graph, 1200});
  cases.push_back({"real grid, 1500 sources",
                   graph::grid(50, 50, graph::WeightSpec::uniform_real(0.5, 2.0),
                               &wrng).graph,
                   1500});
  for (const SettleCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::size_t n = c.graph.num_vertices();
    util::Rng rng(n + c.num_sources);
    const std::vector<Vertex> sources = spread(n, c.num_sources, rng);
    std::vector<bool> removed(n, false);
    for (std::size_t i = 0; i < n / 9; ++i)
      removed[static_cast<Vertex>(rng.next_below(n))] = true;
    for (const Vertex s : sources) removed[s] = false;
    const std::vector<Vertex> targets = spread(n, 6, rng);
    const ReferenceRun full = binary_heap_dijkstra(c.graph, {sources});
    const Weight radius = full.dist[targets[0]] * 0.5;
    expect_settle_order_matches(c.graph, sources, removed, targets, radius);
  }
}

TEST(SettleOrder, VanishingWeightsJoinTheBatchInIdOrder) {
  // 1.0 + 1e-300 == 1.0, so 8, 2 and 1 are queued at the key being popped.
  // 8 arrives above the batch's smallest id (6), so the batch must re-sort
  // before its next pop; 2 then joins below 8 and settles before it.
  GraphBuilder b(10);
  b.add_edge(0, 3, 1.0);
  b.add_edge(0, 6, 1.0);
  b.add_edge(3, 8, 1e-300);
  b.add_edge(8, 1, 1e-300);
  b.add_edge(6, 2, 1e-300);
  b.add_edge(8, 2, 1e-300);
  b.add_edge(1, 9, 2.0);
  b.add_edge(2, 9, 2.0);
  b.add_edge(0, 5, 3.0);
  b.add_edge(5, 4, 1e-300);
  const Graph g = std::move(b).build();
  ASSERT_EQ(1.0 + 1e-300, 1.0);
  const Vertex sources[] = {0};
  const std::vector<bool> none(g.num_vertices(), false);
  const Vertex targets[] = {9, 4};
  expect_settle_order_matches(g, sources, none, targets, 1.0);

  DijkstraWorkspace ws;
  dijkstra_project(g, sources, none, ws);
  const std::vector<Vertex> first_touch(ws.reached_list().begin(),
                                        ws.reached_list().end());
  EXPECT_EQ(first_touch, (std::vector<Vertex>{0, 3, 5, 6, 8, 2, 9, 1, 4}));
  EXPECT_EQ(ws.parent(2), 6u);
  EXPECT_EQ(ws.parent(9), 2u);
  EXPECT_EQ(ws.dist(9), 3.0);
}

TEST(Metrics, EccentricityOnPath) {
  EXPECT_DOUBLE_EQ(eccentricity(graph::path_graph(5), 0), 4.0);
  EXPECT_DOUBLE_EQ(eccentricity(graph::path_graph(5), 2), 2.0);
}

TEST(Metrics, DoubleSweepIsExactOnTrees) {
  util::Rng rng(3);
  const Graph g = graph::random_tree(60, rng);
  util::Rng sweep_rng(1);
  EXPECT_DOUBLE_EQ(diameter_lower_bound(g, sweep_rng), exact_diameter(g));
}

TEST(Metrics, ExactAspectRatioOnUnitPath) {
  EXPECT_DOUBLE_EQ(exact_aspect_ratio(graph::path_graph(5)), 4.0);
}

TEST(Metrics, EstimateIsLowerBoundHere) {
  const graph::GridGraph gg = graph::grid(6, 6);
  util::Rng rng(9);
  EXPECT_LE(aspect_ratio_estimate(gg.graph, rng),
            exact_aspect_ratio(gg.graph) + 1e-9);
}

}  // namespace
}  // namespace pathsep::sssp
