#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "graph/connectivity.hpp"
#include "treedec/tree_decomposition.hpp"

namespace pathsep::graph {
namespace {

TEST(WeightSpecTest, UnitAndEuclidean) {
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(WeightSpec::unit().sample(rng), 1.0);
  EXPECT_DOUBLE_EQ(WeightSpec::euclidean().sample(rng, 2.5), 2.5);
  EXPECT_GT(WeightSpec::euclidean().sample(rng, 0.0), 0.0);  // clamped
}

TEST(WeightSpecTest, UniformRangesRespected) {
  util::Rng rng(2);
  const auto wi = WeightSpec::uniform_int(2, 5);
  const auto wr = WeightSpec::uniform_real(0.5, 1.5);
  for (int i = 0; i < 200; ++i) {
    const Weight a = wi.sample(rng);
    EXPECT_GE(a, 2.0);
    EXPECT_LE(a, 5.0);
    EXPECT_DOUBLE_EQ(a, std::floor(a));
    const Weight b = wr.sample(rng);
    EXPECT_GE(b, 0.5);
    EXPECT_LT(b, 1.5);
  }
}

TEST(Generators, PathGraph) {
  const Graph g = path_graph(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Generators, CycleGraph) {
  const Graph g = cycle_graph(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_THROW(cycle_graph(2), std::invalid_argument);
}

TEST(Generators, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(Generators, StarGraph) {
  const Graph g = star_graph(7);
  EXPECT_EQ(g.degree(0), 6u);
  for (Vertex v = 1; v < 7; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Generators, CompleteBipartite) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 4u);
  for (Vertex v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);
  for (Vertex v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomTreeIsATree) {
  util::Rng rng(5);
  for (std::size_t n : {1u, 2u, 3u, 10u, 100u}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.num_vertices(), n);
    EXPECT_EQ(g.num_edges(), n - (n > 0 ? 1 : 0));
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomTreesVaryWithSeed) {
  util::Rng a(1), b(2);
  EXPECT_FALSE(random_tree(50, a) == random_tree(50, b));
}

TEST(Generators, BalancedTree) {
  const Graph g = balanced_tree(2, 3);  // 1 + 2 + 4 + 8
  EXPECT_EQ(g.num_vertices(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Generators, GridCountsAndPositions) {
  const GridGraph gg = grid(3, 4);
  EXPECT_EQ(gg.graph.num_vertices(), 12u);
  EXPECT_EQ(gg.graph.num_edges(), 3u * 3 + 4u * 2);  // 17
  EXPECT_EQ(gg.at(1, 2), 6u);
  EXPECT_DOUBLE_EQ(gg.positions[gg.at(2, 3)].x, 3.0);
  EXPECT_DOUBLE_EQ(gg.positions[gg.at(2, 3)].y, 2.0);
  EXPECT_TRUE(is_connected(gg.graph));
}

TEST(Generators, TriangulatedGridAddsDiagonals) {
  const GridGraph gg = triangulated_grid(3, 3);
  // grid edges 12 + 4 diagonals.
  EXPECT_EQ(gg.graph.num_edges(), 16u);
  EXPECT_TRUE(gg.graph.has_edge(gg.at(0, 0), gg.at(1, 1)));
}

TEST(Generators, TorusIsFourRegular) {
  const Graph g = torus(4, 5);
  EXPECT_EQ(g.num_edges(), 2u * 20);
  for (Vertex v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, Mesh3DCounts) {
  const Mesh3D m = mesh3d(3, 4, 5);
  EXPECT_EQ(m.graph.num_vertices(), 60u);
  // Edges: 2*4*5 + 3*3*5 + 3*4*4 = 40 + 45 + 48.
  EXPECT_EQ(m.graph.num_edges(), 133u);
  EXPECT_TRUE(is_connected(m.graph));
  EXPECT_EQ(m.at(1, 2, 3), 3u * 12 + 2 * 3 + 1);
}

TEST(Generators, ApollonianIsPlanarSized) {
  util::Rng rng(7);
  const GeometricGraph gg = random_apollonian(50, rng);
  EXPECT_EQ(gg.graph.num_vertices(), 50u);
  // Planar triangulation: m = 3n - 6.
  EXPECT_EQ(gg.graph.num_edges(), 3u * 50 - 6);
  EXPECT_TRUE(is_connected(gg.graph));
  EXPECT_EQ(gg.positions.size(), 50u);
}

TEST(Generators, RoadNetworkConnected) {
  util::Rng rng(11);
  const GeometricGraph gg = road_network(12, 12, rng);
  EXPECT_EQ(gg.graph.num_vertices(), 144u);
  EXPECT_TRUE(is_connected(gg.graph));
  EXPECT_GT(gg.graph.min_edge_weight(), 0.0);
}

TEST(Generators, OuterplanarMaximalIsATwoTree) {
  util::Rng rng(41);
  const GeometricGraph gg = random_outerplanar(40, rng, 1.0);
  EXPECT_EQ(gg.graph.num_vertices(), 40u);
  // Maximal outerplanar: 2n - 3 edges (cycle n + chords n - 3).
  EXPECT_EQ(gg.graph.num_edges(), 2u * 40 - 3);
  EXPECT_TRUE(is_connected(gg.graph));
  EXPECT_LE(treedec::heuristic_decomposition(gg.graph).width(), 2u);
}

TEST(Generators, OuterplanarSparseKeepsTheCycle) {
  util::Rng rng(43);
  const GeometricGraph gg = random_outerplanar(30, rng, 0.0);
  EXPECT_EQ(gg.graph.num_edges(), 30u);  // just the polygon
  for (Vertex v = 0; v < 30; ++v) EXPECT_EQ(gg.graph.degree(v), 2u);
}

TEST(Generators, OuterplanarPositionsLieOnTheCircle) {
  util::Rng rng(47);
  const GeometricGraph gg = random_outerplanar(12, rng);
  for (const Point& p : gg.positions)
    EXPECT_NEAR(p.x * p.x + p.y * p.y, 1.0, 1e-9);
  EXPECT_THROW(random_outerplanar(2, rng), std::invalid_argument);
}

TEST(Generators, KTreeHasExpectedEdgeCount) {
  util::Rng rng(13);
  const std::size_t n = 40, k = 3;
  const Graph g = random_ktree(n, k, rng);
  // k-tree edges: C(k+1,2) + k * (n - k - 1).
  EXPECT_EQ(g.num_edges(), k * (k + 1) / 2 + k * (n - k - 1));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, KTreeHeuristicWidthIsExact) {
  util::Rng rng(17);
  for (std::size_t k : {1u, 2u, 4u}) {
    const Graph g = random_ktree(60, k, rng);
    // Min-degree elimination is exact on chordal graphs.
    EXPECT_EQ(treedec::heuristic_decomposition(g).width(), k);
  }
}

TEST(Generators, PartialKTreeConnectedAndSparser) {
  util::Rng rng(19);
  const Graph full = random_ktree(60, 3, rng);
  util::Rng rng2(19);
  const Graph part = random_partial_ktree(60, 3, 0.5, rng2);
  EXPECT_TRUE(is_connected(part));
  EXPECT_LE(part.num_edges(), full.num_edges());
  EXPECT_LE(treedec::heuristic_decomposition(part).width(), 3u + 2);
}

TEST(Generators, SeriesParallelIsSparseAndNarrow) {
  util::Rng rng(23);
  const Graph g = random_series_parallel(80, rng);
  EXPECT_EQ(g.num_vertices(), 80u);
  EXPECT_TRUE(is_connected(g));
  // Series-parallel graphs have treewidth <= 2; min-degree stays close.
  EXPECT_LE(treedec::heuristic_decomposition(g).width(), 3u);
}

TEST(Generators, MeshWithApexStructure) {
  const Graph g = mesh_with_apex(5);
  EXPECT_EQ(g.num_vertices(), 26u);
  const Vertex apex = 25;
  EXPECT_EQ(g.degree(apex), 25u);
  // Diameter is 2: everything connects through the apex.
  EXPECT_TRUE(g.has_edge(0, apex));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, GnmRespectsCountsAndConnectivity) {
  util::Rng rng(29);
  const Graph g = gnm_random(50, 120, rng);
  EXPECT_EQ(g.num_vertices(), 50u);
  EXPECT_EQ(g.num_edges(), 120u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(gnm_random(4, 100, rng), std::invalid_argument);
}

TEST(Generators, GnmUnconnectedVariantAllowsFragments) {
  util::Rng rng(31);
  const Graph g = gnm_random(100, 5, rng, /*ensure_connected=*/false);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_FALSE(is_connected(g));
}

TEST(Generators, ExpanderConnectedAndBoundedDegree) {
  util::Rng rng(37);
  const Graph g = random_expander(64, 6, rng);
  EXPECT_TRUE(is_connected(g));
  for (Vertex v = 0; v < 64; ++v) {
    EXPECT_GE(g.degree(v), 2u);
    EXPECT_LE(g.degree(v), 8u);
  }
  EXPECT_THROW(random_expander(63, 6, rng), std::invalid_argument);
}

// ---- parameterized sweep: every family is connected at many sizes ---------

struct FamilyCase {
  const char* name;
  std::size_t n;
};

// Without this gtest prints the raw bytes, the name pointer included, so the
// listed test names would change with every address-space layout.
void PrintTo(const FamilyCase& c, std::ostream* os) {
  *os << c.name << " n=" << c.n;
}

class FamilyConnectivity : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(FamilyConnectivity, GeneratedGraphIsConnectedWithRightOrder) {
  const auto& param = GetParam();
  util::Rng rng(1234 + param.n);
  Graph g;
  const std::string name = param.name;
  if (name == "tree") g = random_tree(param.n, rng);
  else if (name == "apollonian") g = random_apollonian(param.n, rng).graph;
  else if (name == "ktree") g = random_ktree(param.n, 3, rng);
  else if (name == "sp") g = random_series_parallel(param.n, rng);
  else if (name == "gnm") g = gnm_random(param.n, 3 * param.n, rng);
  else FAIL() << "unknown family";
  EXPECT_EQ(g.num_vertices(), param.n);
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FamilyConnectivity,
    ::testing::Values(FamilyCase{"tree", 17}, FamilyCase{"tree", 256},
                      FamilyCase{"apollonian", 16}, FamilyCase{"apollonian", 333},
                      FamilyCase{"ktree", 12}, FamilyCase{"ktree", 200},
                      FamilyCase{"sp", 9}, FamilyCase{"sp", 150},
                      FamilyCase{"gnm", 32}, FamilyCase{"gnm", 400}),
    [](const auto& info) {
      return std::string(info.param.name) + "_" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace pathsep::graph
