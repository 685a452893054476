// Quickstart: build a planar graph, find its k-path separator, build the
// (1+eps)-approximate distance oracle and query it.
//
//   ./quickstart [--n=2000] [--eps=0.25] [--seed=1]
#include <cmath>
#include <cstdio>
#include <exception>

#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "oracle/path_oracle.hpp"
#include "separator/finders.hpp"
#include "separator/validate.hpp"
#include "sssp/dijkstra.hpp"
#include "util/args.hpp"

using namespace pathsep;

namespace {

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 2000, 3, 1 << 20));
  const double eps = args.get_positive("eps", 0.25);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.reject_unused("quickstart");

  // 1. A random weighted planar triangulation with a straight-line drawing.
  util::Rng rng(seed);
  const graph::GeometricGraph gg =
      graph::random_apollonian(n, rng, graph::WeightSpec::euclidean());
  std::printf("graph: %zu vertices, %zu edges (planar triangulation)\n",
              gg.graph.num_vertices(), gg.graph.num_edges());

  // 2. Thorup's strong 3-path separator (the base case of Theorem 1).
  const separator::PlanarCycleSeparator finder(gg.positions);
  const separator::PathSeparator s = finder.find(gg.graph);
  const separator::ValidationReport report = separator::validate(gg.graph, s);
  std::printf("separator: %zu shortest paths, %zu vertices, largest ",
              report.path_count, report.separator_vertices);
  std::printf("component %zu <= n/2 = %zu (valid: %s)\n",
              report.largest_component, n / 2, report.ok ? "yes" : "no");

  // 3. The recursive decomposition tree of §4.
  const hierarchy::DecompositionTree tree(gg.graph, finder);
  std::printf("hierarchy: %zu nodes, depth %u (log2 n = %.1f), max k = %zu\n",
              tree.nodes().size(), tree.height(),
              std::log2(static_cast<double>(n)), tree.max_separator_paths());

  // 4. The (1+eps)-approximate distance oracle of Theorem 2.
  const oracle::PathOracle oracle(tree, eps);
  std::printf("oracle: %zu words total, %.1f words/vertex, eps = %.2f\n",
              oracle.size_in_words(), oracle.average_label_words(), eps);

  // 5. Query a few pairs and compare with exact Dijkstra.
  std::printf("\n%8s %8s %12s %12s %8s\n", "u", "v", "oracle", "exact",
              "ratio");
  for (int i = 0; i < 8; ++i) {
    const auto u = static_cast<graph::Vertex>(rng.next_below(n));
    const auto v = static_cast<graph::Vertex>(rng.next_below(n));
    const graph::Weight est = oracle.query(u, v);
    const graph::Weight exact = sssp::distance(gg.graph, u, v);
    std::printf("%8u %8u %12.4f %12.4f %8.4f\n", u, v, est, exact,
                exact > 0 ? est / exact : 1.0);
  }
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
