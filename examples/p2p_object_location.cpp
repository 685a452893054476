// Object location overlay: the paper's title scenario. Objects (named
// items) are placed on nodes of a weighted planar network; a directory maps
// object name -> home node label. Locating an object = a label-only
// (1+eps) distance estimate to rank replicas + compact routing to fetch it.
//
//   ./p2p_object_location [--n=3000] [--objects=20] [--replicas=3]
//                         [--eps=0.25] [--seed=7]
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "graph/generators.hpp"
#include "routing/simulator.hpp"
#include "separator/finders.hpp"
#include "sssp/dijkstra.hpp"
#include "util/args.hpp"

using namespace pathsep;

namespace {

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 3000, 3, 1 << 20));
  const auto num_objects =
      static_cast<std::size_t>(args.get_int("objects", 20, 0, 1 << 16));
  const auto replicas =
      static_cast<std::size_t>(args.get_int("replicas", 3, 1, 64));
  const double eps = args.get_positive("eps", 0.25);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  args.reject_unused("p2p_object_location");

  util::Rng rng(seed);
  const graph::GeometricGraph net =
      graph::random_apollonian(n, rng, graph::WeightSpec::euclidean());
  std::printf("overlay network: %zu nodes, %zu links\n", n,
              net.graph.num_edges());

  const separator::PlanarCycleSeparator finder(net.positions);
  const hierarchy::DecompositionTree tree(net.graph, finder);
  const routing::RoutingScheme scheme(tree, eps);
  std::printf("scheme: %.1f words/node; every node can rank replicas from\n"
              "labels alone and source-route with stretch <= %.2f\n",
              static_cast<double>(scheme.table_words()) / static_cast<double>(n),
              1 + eps);

  // Directory: each object is replicated on `replicas` random nodes and the
  // directory stores their *labels* (this is the "object location" use of
  // Theorem 2: clients compare replica distances without any network I/O).
  std::map<std::string, std::vector<graph::Vertex>> directory;
  for (std::size_t o = 0; o < num_objects; ++o) {
    std::vector<graph::Vertex> homes;
    for (std::size_t r = 0; r < replicas; ++r)
      homes.push_back(static_cast<graph::Vertex>(rng.next_below(n)));
    directory["object-" + std::to_string(o)] = homes;
  }

  std::printf("\n%-12s %8s %10s %10s %10s %8s\n", "object", "client",
              "picked", "est_dist", "routed", "optimal");
  util::OnlineStats pick_quality;
  for (const auto& [name, homes] : directory) {
    const auto client = static_cast<graph::Vertex>(rng.next_below(n));
    // Rank replicas by the label-only estimate.
    graph::Vertex best = homes[0];
    graph::Weight best_est = graph::kInfiniteWeight;
    for (graph::Vertex home : homes) {
      const graph::Weight est = scheme.oracle().query(client, home);
      if (est < best_est) {
        best_est = est;
        best = home;
      }
    }
    const routing::RouteResult route = scheme.route(client, best);
    // How close is the chosen replica to the truly closest one?
    graph::Weight optimal = graph::kInfiniteWeight;
    for (graph::Vertex home : homes)
      optimal = std::min(optimal, sssp::distance(net.graph, client, home));
    pick_quality.add(optimal > 0 ? route.cost / optimal : 1.0);
    std::printf("%-12s %8u %10u %10.3f %10.3f %8.3f\n", name.c_str(), client,
                best, best_est, route.cost, optimal);
  }
  std::printf(
      "\nfetch cost / optimal replica distance: avg %.4f, max %.4f\n"
      "(the (1+eps)^2 worst case is %.4f: eps-error in ranking plus\n"
      "eps-stretch in routing)\n",
      pick_quality.mean(), pick_quality.max(), (1 + eps) * (1 + eps));
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
