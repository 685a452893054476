// Cross-module integration sweeps: for every graph family and several seeds,
// build the full pipeline — separator hierarchy (with Definition 1
// validation ON) → oracle → labels (wire round-trip) → routing — and assert
// the end-to-end guarantees against exact Dijkstra.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>
#include <ostream>

#include "graph/generators.hpp"
#include "oracle/path_oracle.hpp"
#include "oracle/serialize.hpp"
#include "routing/simulator.hpp"
#include "separator/finders.hpp"
#include "sssp/dijkstra.hpp"

namespace pathsep {
namespace {

using graph::Graph;
using graph::Vertex;
using graph::Weight;

struct PipelineCase {
  const char* family;
  std::size_t n;
  std::uint64_t seed;
  double epsilon;
};

// Without this gtest prints the raw bytes, family pointer included, so the
// listed test names would change with every address-space layout.
void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << c.family << " n=" << c.n << " seed=" << c.seed
      << " eps=" << c.epsilon;
}

struct BuiltInstance {
  Graph graph;
  std::unique_ptr<separator::SeparatorFinder> finder;
};

BuiltInstance build_instance(const PipelineCase& c) {
  util::Rng rng(c.seed);
  const std::string family = c.family;
  if (family == "tree") {
    return {graph::random_tree(c.n, rng, graph::WeightSpec::uniform_real(1, 6)),
            std::make_unique<separator::TreeCentroidSeparator>()};
  }
  if (family == "apollonian") {
    auto gg = graph::random_apollonian(c.n, rng, graph::WeightSpec::euclidean());
    return {std::move(gg.graph),
            std::make_unique<separator::PlanarCycleSeparator>(gg.positions)};
  }
  if (family == "road") {
    const auto side = static_cast<std::size_t>(std::sqrt(double(c.n)));
    auto gg = graph::road_network(side, side, rng);
    return {std::move(gg.graph),
            std::make_unique<separator::PlanarCycleSeparator>(gg.positions)};
  }
  if (family == "outerplanar") {
    auto gg = graph::random_outerplanar(c.n, rng, 0.8);
    return {std::move(gg.graph),
            std::make_unique<separator::PlanarCycleSeparator>(gg.positions)};
  }
  if (family == "ktree") {
    return {graph::random_ktree(c.n, 3, rng,
                                graph::WeightSpec::uniform_real(0.5, 2.0)),
            std::make_unique<separator::TreewidthBagSeparator>()};
  }
  if (family == "series-parallel") {
    return {graph::random_series_parallel(c.n, rng),
            std::make_unique<separator::TreewidthBagSeparator>()};
  }
  ADD_FAILURE() << "unknown family " << family;
  return {Graph{}, nullptr};
}

class Pipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(Pipeline, EndToEndGuaranteesHold) {
  const PipelineCase c = GetParam();
  BuiltInstance instance = build_instance(c);
  const std::size_t n = instance.graph.num_vertices();

  // 1. Hierarchy with full Definition 1 validation at every node.
  hierarchy::DecompositionTree::Options options;
  options.validate_separators = true;
  const hierarchy::DecompositionTree tree(instance.graph, *instance.finder,
                                          options);
  EXPECT_LE(tree.height(),
            static_cast<std::uint32_t>(std::log2(double(n))) + 2);

  // 2. Oracle: sampled stretch within [1, 1+eps].
  const oracle::PathOracle oracle(tree, c.epsilon);
  util::Rng rng(c.seed * 7 + 1);
  for (int i = 0; i < 60; ++i) {
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    const Weight est = oracle.query(u, v);
    const Weight truth = sssp::distance(instance.graph, u, v);
    if (u == v) {
      EXPECT_EQ(est, 0.0);
      continue;
    }
    EXPECT_GE(est, truth - 1e-9);
    EXPECT_LE(est, (1 + c.epsilon) * truth + 1e-9)
        << c.family << " n=" << n << " " << u << "->" << v;
  }

  // 3. Labels survive the wire and answer identically.
  for (int i = 0; i < 10; ++i) {
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    if (u == v) continue;
    const auto lu = oracle::deserialize_label(
        oracle::serialize_label(oracle.label(u)));
    const auto lv = oracle::deserialize_label(
        oracle::serialize_label(oracle.label(v)));
    EXPECT_EQ(oracle::query_labels(lu.view(), lv.view()), oracle.query(u, v));
  }

  // 4. Routing: valid walks, cost == oracle estimate, stretch <= 1+eps.
  const routing::RoutingScheme scheme(tree, c.epsilon);
  for (int i = 0; i < 25; ++i) {
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    Vertex v = static_cast<Vertex>(rng.next_below(n));
    while (v == u) v = static_cast<Vertex>(rng.next_below(n));
    const routing::RouteResult route = scheme.route(u, v);
    ASSERT_TRUE(route.delivered);
    EXPECT_TRUE(routing::route_is_consistent(instance.graph, route));
    EXPECT_NEAR(route.cost, oracle.query(u, v), 1e-9);
  }
}

std::string case_name(const ::testing::TestParamInfo<PipelineCase>& info) {
  std::string name = info.param.family;
  for (char& ch : name)
    if (ch == '-') ch = '_';
  return name + "_n" + std::to_string(info.param.n) + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Families, Pipeline,
    ::testing::Values(
        PipelineCase{"tree", 150, 1, 0.5}, PipelineCase{"tree", 500, 2, 0.25},
        PipelineCase{"apollonian", 120, 1, 0.5},
        PipelineCase{"apollonian", 400, 2, 0.25},
        PipelineCase{"apollonian", 400, 3, 0.1},
        PipelineCase{"road", 144, 1, 0.5}, PipelineCase{"road", 400, 2, 0.25},
        PipelineCase{"outerplanar", 150, 1, 0.5},
        PipelineCase{"outerplanar", 300, 2, 0.25},
        PipelineCase{"ktree", 150, 1, 0.5},
        PipelineCase{"ktree", 400, 2, 0.25},
        PipelineCase{"series-parallel", 150, 1, 0.5},
        PipelineCase{"series-parallel", 400, 2, 0.25}),
    case_name);

// Degenerate labels must never cause underestimates: dropping connections
// from a label can only raise the estimate (failure injection).
TEST(PipelineFaults, TruncatedLabelsNeverUnderestimate) {
  util::Rng rng(11);
  const auto gg = graph::random_apollonian(120, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  const oracle::PathOracle oracle(tree, 0.5);
  for (Vertex u = 0; u < 120; u += 13)
    for (Vertex v = 5; v < 120; v += 17) {
      const oracle::LabelView lu = oracle.label(u);
      // Drop every other part and every other connection.
      oracle::DistanceLabel crippled;
      crippled.vertex = lu.vertex();
      for (std::size_t p = 0; p < lu.num_parts(); p += 2) {
        std::vector<oracle::Connection> kept;
        for (std::size_t c = 0; c < lu.hot(p).size(); c += 2)
          kept.push_back(lu.connection(p, c));
        crippled.add_part(lu.part(p).node, lu.part(p).path(),
                          lu.part(p).depth(), kept);
      }
      const Weight est =
          oracle::query_labels(crippled.view(), oracle.label(v));
      const Weight truth = sssp::distance(gg.graph, u, v);
      if (u != v && est != graph::kInfiniteWeight) {
        EXPECT_GE(est, truth - 1e-9);
      }
    }
}

}  // namespace
}  // namespace pathsep
