// Command-line separator explorer: load (or generate) a graph, compute its
// k-path separator hierarchy with a chosen finder backend, validate it
// against Definition 1, and print per-level statistics. Handy for poking at
// your own edge lists:
//
//   ./separator_tool --load=mygraph.txt
//   ./separator_tool --family=apollonian --n=5000 --save=mygraph.txt
//   ./separator_tool --family=expander --n=1024 --max-levels=4
//   ./separator_tool --family=road --n=10000 --finder=flow --pareto
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

#include "check/check.hpp"
#include "flow/cutter.hpp"
#include "flow/flow_separator.hpp"
#include "flow/registry.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "separator/finders.hpp"
#include "separator/validate.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace pathsep;

namespace {

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  const std::string load = args.get("load");
  const std::string family = args.get("family", "apollonian");
  const auto n = static_cast<std::size_t>(args.get_int("n", 2000, 3, 1 << 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto max_levels =
      static_cast<std::uint32_t>(args.get_int("max-levels", 6, 0, 64));
  const std::string finder_name = args.get("finder", "auto");
  const double balance_eps = args.get_double("balance-eps", 0.0);
  const bool pareto = args.get_bool("pareto");
  const std::string save = args.get("save");
  args.reject_unused("separator_tool");
  util::Rng rng(seed);

  graph::Graph g;
  std::optional<std::vector<graph::Point>> positions;
  if (!load.empty()) {
    g = graph::load_edge_list(load);
    std::printf("loaded %s: %zu vertices, %zu edges\n", load.c_str(),
                g.num_vertices(), g.num_edges());
  } else if (family == "apollonian") {
    auto gg = graph::random_apollonian(n, rng);
    positions = gg.positions;
    g = std::move(gg.graph);
  } else if (family == "road") {
    const auto side = static_cast<std::size_t>(std::sqrt(double(n)));
    auto gg = graph::road_network(side, side, rng);
    positions = gg.positions;
    g = std::move(gg.graph);
  } else if (family == "tree") {
    g = graph::random_tree(n, rng);
  } else if (family == "ktree") {
    g = graph::random_ktree(n, 3, rng);
  } else if (family == "expander") {
    g = graph::random_expander(n + n % 2, 8, rng);
  } else {
    std::fprintf(stderr, "unknown --family=%s\n", family.c_str());
    return 1;
  }
  if (!save.empty()) {
    graph::save_edge_list(save, g);
    std::printf("saved graph to %s\n", save.c_str());
  }

  if (!graph::is_connected(g)) {
    std::fprintf(stderr, "graph is disconnected; decomposing requires a "
                         "connected graph\n");
    return 1;
  }

  flow::FlowSeparatorOptions flow_options;
  flow_options.balance_eps = balance_eps;
  std::unique_ptr<separator::SeparatorFinder> finder;
  try {
    finder = flow::make_finder(finder_name, positions, flow_options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (pareto) {
    // One cutting round of the whole graph: the cut-size-vs-balance front
    // the flow backend picks from (other finders expose no front).
    flow::FlowSeparator front_finder(positions, flow_options);
    std::vector<graph::Vertex> ids(g.num_vertices());
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) ids[v] = v;
    const flow::ParetoFront front = front_finder.pareto_front(g, ids);
    std::printf("\nflow Pareto front (%zu points):\n", front.size());
    util::TableWriter front_table(
        {"cut", "max_side", "max_side_frac", "direction", "permille", "side"});
    for (const flow::CutCandidate& c : front.cuts())
      front_table.add_row({util::strf("%zu", c.cut.size()),
                           util::strf("%zu", c.max_side()),
                           util::strf("%.3f", c.max_side_fraction()),
                           util::strf("%u", c.direction),
                           util::strf("%u", c.permille),
                           c.source_side ? "source" : "target"});
    front_table.print(std::cout);
  }

  const hierarchy::DecompositionTree tree(g, *finder);

  std::printf("\nhierarchy: %zu nodes, depth %u (log2 n + 1 = %.1f), "
              "max k = %zu\n",
              tree.nodes().size(), tree.height(),
              std::log2(double(g.num_vertices())) + 1,
              tree.max_separator_paths());

  // Per-level digest.
  util::TableWriter table({"level", "nodes", "largest_n", "max_paths",
                           "max_sep_vertices", "valid"});
  for (std::uint32_t level = 0; level < std::min(tree.height(), max_levels);
       ++level) {
    std::size_t count = 0, largest = 0, max_paths = 0, max_sep = 0;
    bool all_valid = true;
    for (const auto& node : tree.nodes()) {
      if (node.depth != level) continue;
      ++count;
      largest = std::max(largest, node.graph.num_vertices());
      max_paths = std::max(max_paths, node.paths.size());
      separator::PathSeparator s;
      s.stages.resize(node.num_stages);
      for (const auto& path : node.paths)
        s.stages[path.stage].push_back(path.verts);
      const auto report = separator::validate(node.graph, s);
      all_valid = all_valid && report.ok;
      max_sep = std::max(max_sep, report.separator_vertices);
    }
    table.add_row({util::strf("%u", level), util::strf("%zu", count),
                   util::strf("%zu", largest), util::strf("%zu", max_paths),
                   util::strf("%zu", max_sep), all_valid ? "yes" : "NO"});
  }
  table.print(std::cout);
  if (tree.height() > max_levels)
    std::printf("(%u deeper levels omitted; --max-levels to see more)\n",
                tree.height() - max_levels);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Tool mode: a failed PATHSEP_ASSERT aborts with the report on stderr;
  // expected input errors (malformed --load files) print and exit 1.
  check::abort_on_failure();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
