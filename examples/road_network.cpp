// Road-network scenario: the workload the paper's introduction motivates —
// object location on a weighted planar network. Builds a synthetic road
// network (jittered grid, Euclidean weights, dropped edges), distributes
// (1+eps) distance labels, and routes packets with the compact routing
// scheme, reporting per-vertex state and observed stretch.
//
//   ./road_network [--side=48] [--eps=0.2] [--pairs=200] [--seed=3]
#include <cstdio>
#include <exception>

#include "graph/generators.hpp"
#include "routing/simulator.hpp"
#include "separator/finders.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"

using namespace pathsep;

namespace {

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  const auto side = static_cast<std::size_t>(args.get_int("side", 48, 2, 1024));
  const double eps = args.get_positive("eps", 0.2);
  const auto pairs =
      static_cast<std::size_t>(args.get_int("pairs", 200, 0, 1 << 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  args.reject_unused("road_network");

  util::Rng rng(seed);
  const graph::GeometricGraph road = graph::road_network(side, side, rng);
  const std::size_t n = road.graph.num_vertices();
  std::printf("road network: %zu intersections, %zu road segments\n", n,
              road.graph.num_edges());

  const separator::PlanarCycleSeparator finder(road.positions);
  const hierarchy::DecompositionTree tree(road.graph, finder);
  std::printf("decomposition: depth %u, max %zu shortest paths per level\n",
              tree.height(), tree.max_separator_paths());

  const routing::RoutingScheme scheme(tree, eps);
  std::printf("routing scheme: %.1f words/vertex average, %zu words max "
              "(labels + next hops)\n",
              static_cast<double>(scheme.table_words()) /
                  static_cast<double>(n),
              scheme.max_table_words());

  util::Rng eval_rng(seed + 1);
  const routing::RoutingStats stats =
      routing::evaluate_routing(scheme, road.graph, pairs, eval_rng);
  std::printf("\nrouted %zu packets: 0 failures expected, got %zu\n",
              stats.pairs, stats.failures);
  std::printf("stretch: avg %.4f, max %.4f (bound %.4f)\n",
              stats.stretch.mean(), stats.stretch.max(), 1 + eps);
  std::printf("hops: avg %.1f, max %.0f\n", stats.hops.mean(),
              stats.hops.max());

  // Show one concrete route.
  const routing::RouteResult route =
      scheme.route(0, static_cast<graph::Vertex>(n - 1));
  std::printf("\nsample route 0 -> %zu: %zu hops, cost %.3f\n", n - 1,
              route.hops, route.cost);
  std::printf("first hops:");
  for (std::size_t i = 0; i < route.route.size() && i < 12; ++i)
    std::printf(" %u", route.route[i]);
  std::printf("%s\n", route.route.size() > 12 ? " ..." : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
