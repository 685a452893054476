// E1 — Theorem 1 / Theorem 6.1 / Theorem 7: measured k-path separator sizes.
// E16 — flow-cutter Pareto evaluation: cut size vs balance vs build time of
//       FlowSeparator against the structural and greedy finders, plus the
//       downstream label bytes each backend induces. Results land in
//       BENCH_separator.json (--out) so the Pareto trajectory is tracked
//       across PRs.
//
// For every graph family the paper names, builds the full decomposition
// hierarchy and reports the measured max paths per separator (the "k"),
// the balance (largest component fraction after the root separator), the
// hierarchy depth against the log2(n) bound, and construction time. The
// paper predicts: trees and unweighted meshes k = 1, planar k <= 3
// (strong), treewidth-w graphs k <= w+1 (strong).
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "flow/flow_separator.hpp"
#include "flow/registry.hpp"
#include "oracle/labels.hpp"
#include "oracle/serialize.hpp"
#include "util/args.hpp"

using namespace pathsep;
using namespace pathsep::bench;

namespace {

void run_family(util::TableWriter& table, Instance instance,
                std::size_t k_bound) {
  const std::size_t n = instance.graph.num_vertices();
  util::Timer timer;
  const hierarchy::DecompositionTree tree(instance.graph, *instance.finder);
  const double build_s = timer.elapsed_seconds();

  // Root-level balance.
  const auto& root = tree.node(0);
  std::vector<bool> mask(n, false);
  for (const auto& path : root.paths)
    for (Vertex v : path.verts) mask[v] = true;
  const graph::Components comps =
      graph::connected_components(instance.graph, mask);
  const double balance =
      comps.count() == 0
          ? 0.0
          : static_cast<double>(comps.largest()) / static_cast<double>(n);

  const double depth_bound = std::log2(static_cast<double>(n)) + 1;
  table.add_row({instance.family, util::strf("%zu", n),
                 util::strf("%zu", instance.graph.num_edges()),
                 util::strf("%zu", tree.max_separator_paths()),
                 k_bound ? util::strf("%zu", k_bound) : "-",
                 util::strf("%.3f", balance),
                 util::strf("%u", tree.height()),
                 util::strf("%.1f", depth_bound),
                 util::strf("%.3f", build_s)});
}

/// One finder's root separator on one graph, as a point in the
/// cut-size/balance plane.
struct RootRun {
  std::string finder;
  std::size_t sep_vertices = 0;
  std::size_t paths = 0;
  std::size_t largest_component = 0;
  double balance = 0;
  double seconds = 0;
};

RootRun measure_root(const std::string& name,
                     const separator::SeparatorFinder& finder,
                     const Graph& g) {
  RootRun run;
  run.finder = name;
  util::Timer timer;
  const separator::PathSeparator s = finder.find(g);
  run.seconds = timer.elapsed_seconds();
  run.sep_vertices = s.vertices().size();
  run.paths = s.path_count();
  const graph::Components comps =
      graph::connected_components(g, s.removal_mask(g.num_vertices()));
  run.largest_component = comps.count() == 0 ? 0 : comps.largest();
  run.balance = static_cast<double>(run.largest_component) /
                static_cast<double>(g.num_vertices());
  return run;
}

/// Downstream cost: total serialized label bytes when the whole oracle is
/// built through one finder.
struct LabelRun {
  std::string finder;
  std::size_t label_bytes = 0;
  double seconds = 0;
};

LabelRun measure_labels(const std::string& name,
                        const separator::SeparatorFinder& finder,
                        const Graph& g, double epsilon) {
  LabelRun run;
  run.finder = name;
  util::Timer timer;
  const hierarchy::DecompositionTree tree(g, finder);
  const auto labels = oracle::build_labels(tree, epsilon);
  run.seconds = timer.elapsed_seconds();
  for (Vertex v = 0; v < labels.num_vertices(); ++v)
    run.label_bytes += oracle::serialize_label(labels.label(v)).size();
  return run;
}

/// Domination at the Definition-1 balance target. A single bipartition cut
/// can never push the larger side below (M - cut)/2, while a multi-path
/// removal splits into many components, so comparing raw (cut, max_side)
/// points across the two finder families is vacuous. The meaningful contest
/// is the constrained problem both solve: reach largest component <= n/2
/// (property P3) with the smallest separator. Flow dominates when its front
/// holds a point meeting the target with a strictly smaller cut than the
/// greedy separator, and its realized separator is strictly smaller too.
bool dominates_at_p3(const flow::ParetoFront& front, std::size_t n,
                     const RootRun& flow_root, const RootRun& greedy_root) {
  const flow::CutCandidate* best = front.best_within(n / 2);
  return best != nullptr && best->cut.size() < greedy_root.sep_vertices &&
         flow_root.sep_vertices < greedy_root.sep_vertices &&
         flow_root.largest_component <= n / 2;
}

int run_e16(const std::string& out_path, std::size_t road_side,
            std::size_t label_side, double epsilon) {
  section("E16", "flow cutter vs structural/greedy finders (perturbed grid)");
  util::Rng rng(101);
  const graph::GeometricGraph gg = graph::road_network(road_side, road_side, rng);
  const Graph& g = gg.graph;
  std::printf("road %zux%zu: %zu vertices, %zu edges\n", road_side, road_side,
              g.num_vertices(), g.num_edges());

  // Root separators: one point per finder.
  const flow::FlowSeparator flow_finder(gg.positions);
  const separator::PlanarCycleSeparator thorup(gg.positions);
  const separator::GreedyPathSeparator greedy;
  const separator::StrongGreedySeparator strong;
  std::vector<RootRun> roots;
  roots.push_back(measure_root("flow", flow_finder, g));
  roots.push_back(measure_root("thorup", thorup, g));
  roots.push_back(measure_root("greedy-paths", greedy, g));
  roots.push_back(measure_root("strong-greedy", strong, g));

  util::TableWriter root_table({"finder", "sep_vertices", "paths",
                                "largest_comp", "balance", "seconds"});
  for (const RootRun& r : roots)
    root_table.add_row({r.finder, util::strf("%zu", r.sep_vertices),
                        util::strf("%zu", r.paths),
                        util::strf("%zu", r.largest_component),
                        util::strf("%.3f", r.balance),
                        util::strf("%.3f", r.seconds)});
  root_table.print(std::cout);

  // The flow Pareto front itself (cut size vs balance, one cutting round).
  std::vector<Vertex> ids(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) ids[v] = v;
  util::Timer front_timer;
  const flow::ParetoFront front = flow_finder.pareto_front(g, ids);
  const double front_seconds = front_timer.elapsed_seconds();
  util::TableWriter front_table(
      {"cut", "max_side", "max_side_frac", "direction", "permille", "side"});
  for (const flow::CutCandidate& c : front.cuts())
    front_table.add_row({util::strf("%zu", c.cut.size()),
                         util::strf("%zu", c.max_side()),
                         util::strf("%.3f", c.max_side_fraction()),
                         util::strf("%u", c.direction),
                         util::strf("%u", c.permille),
                         c.source_side ? "source" : "target"});
  std::printf("\nflow Pareto front (%zu points, %.3fs):\n", front.size(),
              front_seconds);
  front_table.print(std::cout);

  const RootRun& greedy_root = roots[2];
  const bool dominates =
      dominates_at_p3(front, g.num_vertices(), roots[0], greedy_root);
  std::printf("\nflow_dominates_greedy=%s\n", dominates ? "true" : "false");

  // Downstream label bytes on a smaller instance of the same family.
  section("E16b", "downstream label bytes per separator backend");
  util::Rng label_rng(103);
  const graph::GeometricGraph lg =
      graph::road_network(label_side, label_side, label_rng);
  const flow::FlowSeparator label_flow(lg.positions);
  const separator::PlanarCycleSeparator label_thorup(lg.positions);
  const separator::GreedyPathSeparator label_greedy;
  std::vector<LabelRun> label_runs;
  label_runs.push_back(measure_labels("flow", label_flow, lg.graph, epsilon));
  label_runs.push_back(
      measure_labels("thorup", label_thorup, lg.graph, epsilon));
  label_runs.push_back(
      measure_labels("greedy-paths", label_greedy, lg.graph, epsilon));
  util::TableWriter label_table({"finder", "label_bytes", "bytes/vertex",
                                 "build_s"});
  for (const LabelRun& r : label_runs)
    label_table.add_row(
        {r.finder, util::strf("%zu", r.label_bytes),
         util::strf("%.1f", static_cast<double>(r.label_bytes) /
                                static_cast<double>(lg.graph.num_vertices())),
         util::strf("%.3f", r.seconds)});
  label_table.print(std::cout);

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"bench_separator\",\n  \"road_side\": " << road_side
      << ",\n  \"n\": " << g.num_vertices()
      << ",\n  \"flow_dominates_greedy\": " << (dominates ? "true" : "false")
      << ",\n  \"pareto_seconds\": " << front_seconds
      << ",\n  \"roots\": [\n";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const RootRun& r = roots[i];
    out << "    {\"finder\": \"" << r.finder
        << "\", \"sep_vertices\": " << r.sep_vertices
        << ", \"paths\": " << r.paths
        << ", \"largest_component\": " << r.largest_component
        << ", \"balance\": " << r.balance << ", \"seconds\": " << r.seconds
        << "}" << (i + 1 < roots.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pareto\": [\n";
  const auto cuts = front.cuts();
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    out << "    {\"cut\": " << cuts[i].cut.size()
        << ", \"max_side\": " << cuts[i].max_side()
        << ", \"direction\": " << cuts[i].direction
        << ", \"permille\": " << cuts[i].permille << "}"
        << (i + 1 < cuts.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"label_side\": " << label_side
      << ",\n  \"label_epsilon\": " << epsilon << ",\n  \"labels\": [\n";
  for (std::size_t i = 0; i < label_runs.size(); ++i) {
    const LabelRun& r = label_runs[i];
    out << "    {\"finder\": \"" << r.finder
        << "\", \"label_bytes\": " << r.label_bytes
        << ", \"seconds\": " << r.seconds << "}"
        << (i + 1 < label_runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // E16's flags are read here, so a misspelt or malformed one fails before
  // any build work.
  std::string out_path;
  std::size_t road_side = 0, label_side = 0;
  double epsilon = 0;
  try {
    const util::Args args(argc, argv);
    out_path = args.get("out", "BENCH_separator.json");
    road_side =
        static_cast<std::size_t>(args.get_int("road-side", 320, 2, 2048));
    label_side =
        static_cast<std::size_t>(args.get_int("label-side", 96, 2, 2048));
    epsilon = args.get_double("epsilon", 0.5);
    args.reject_unused("bench_separator");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  section("E1", "k-path separator sizes per graph family (Thm 1/6.1/7)");
  util::TableWriter table({"family", "n", "m", "k_measured", "k_paper",
                           "root_balance", "depth", "log2n+1", "build_s"});

  for (std::size_t side : {16u, 32u, 64u, 128u, 256u})
    run_family(table, make_grid(side), 1);
  for (std::size_t n : {256u, 1024u, 4096u, 16384u})
    run_family(table, make_tree(n, 7 + n), 1);
  for (std::size_t n : {256u, 1024u, 4096u, 16384u})
    run_family(table, make_triangulation(n, 11 + n), 3);
  for (std::size_t side : {16u, 32u, 64u})
    run_family(table, make_road(side, 13 + side), 3);
  for (std::size_t n : {256u, 1024u, 4096u})
    run_family(table, make_series_parallel(n, 17 + n), 3);
  for (std::size_t n : {256u, 1024u, 4096u})
    run_family(table, make_outerplanar(n, 23 + n), 3);
  for (std::size_t k : {2u, 3u, 4u})
    run_family(table, make_ktree(2048, k, 19 + k), k + 1);

  table.print(std::cout);

  section("E1b", "Definition 1 validation (P1 shortest paths, P3 balance)");
  util::TableWriter check({"family", "n", "valid", "paths", "sep_vertices",
                           "largest_comp"});
  std::vector<Instance> instances;
  instances.push_back(make_grid(32));
  instances.push_back(make_tree(1024, 3));
  instances.push_back(make_triangulation(1024, 5));
  instances.push_back(make_road(24, 7));
  instances.push_back(make_series_parallel(512, 9));
  instances.push_back(make_ktree(512, 3, 11));
  for (auto& instance : instances) {
    const separator::PathSeparator s = instance.finder->find(instance.graph);
    const separator::ValidationReport report =
        separator::validate(instance.graph, s);
    check.add_row({instance.family,
                   util::strf("%zu", instance.graph.num_vertices()),
                   report.ok ? "yes" : ("NO: " + report.error),
                   util::strf("%zu", report.path_count),
                   util::strf("%zu", report.separator_vertices),
                   util::strf("%zu", report.largest_component)});
  }
  check.print(std::cout);
  return run_e16(out_path, road_side, label_side, epsilon);
}
