// Oracle introspection CLI: build a decomposition + distance oracle for a
// benchmark instance and print the OracleReport — where every serialized
// label byte goes, per decomposition level, against the Theorem 2 bound —
// plus the process metrics the instrumented build recorded, in any exporter
// format. The per-level byte totals are cross-checked against
// oracle::serialize_label byte-for-byte; a mismatch is a hard failure (exit
// 1), so this tool doubles as an audit of the report's accounting.
//
//   ./oracle_stats --graph=grid --side=48 --eps=0.25
//   ./oracle_stats --graph=tree --n=4096 --format=json
//   ./oracle_stats --graph=road --side=24 --metrics=prom --trace
//
// Flags: --graph=grid|tree|road (instance family), --side (grid/road side),
// --n (tree vertices), --eps, --seed, --format=text|json (report rendering),
// --metrics=none|report|json|prom (process-registry rendering), --trace
// (enable span recording and render the construction trace),
// --trace-format=text|perfetto|collapsed (stitched tree, Chrome trace_event
// JSON for ui.perfetto.dev, or folded flamegraph stacks), --trace-out=<path>
// (write the rendered trace to a file instead of stdout).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "check/check.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "oracle/serialize.hpp"
#include "separator/finders.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace pathsep;

namespace {

struct Instance {
  graph::Graph graph;
  std::unique_ptr<separator::SeparatorFinder> finder;
  std::string description;
};

Instance make_instance(const std::string& family, std::size_t side,
                       std::size_t n, std::uint64_t seed) {
  Instance inst;
  if (family == "grid") {
    graph::GridGraph gg = graph::grid(side, side);
    inst.graph = std::move(gg.graph);
    inst.finder = std::make_unique<separator::GridLineSeparator>(side, side);
    inst.description = "grid " + std::to_string(side) + "x" +
                       std::to_string(side);
  } else if (family == "tree") {
    util::Rng rng(seed);
    inst.graph = graph::random_tree(n, rng);
    inst.finder = std::make_unique<separator::TreeCentroidSeparator>();
    inst.description = "random tree n=" + std::to_string(n);
  } else if (family == "road") {
    util::Rng rng(seed);
    graph::GeometricGraph gg = graph::road_network(side, side, rng);
    inst.graph = std::move(gg.graph);
    inst.finder = std::make_unique<separator::PlanarCycleSeparator>(
        std::move(gg.positions));
    inst.description = "road network " + std::to_string(side) + "x" +
                       std::to_string(side);
  } else {
    throw std::invalid_argument("--graph must be grid, tree, or road");
  }
  return inst;
}

/// Recomputes every label's serialized size through oracle::serialize_label
/// and demands the report's attribution reproduces the total exactly.
bool verify_report_bytes(const obs::OracleReport& report,
                         const oracle::PathOracle& oracle) {
  std::size_t actual = 0;
  for (std::size_t v = 0; v < oracle.num_vertices(); ++v)
    actual += oracle::serialize_label(
                  oracle.label(static_cast<graph::Vertex>(v)))
                  .size();
  std::size_t attributed = report.label_header_bytes;
  for (const obs::LevelReport& level : report.levels)
    attributed += level.serialized_bytes;
  if (report.total_serialized_bytes != actual ||
      attributed != actual) {
    std::fprintf(stderr,
                 "BYTE ACCOUNTING MISMATCH: serialize_label total %zu, "
                 "report total %zu, per-level attribution %zu\n",
                 actual, report.total_serialized_bytes, attributed);
    return false;
  }
  return true;
}

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  const std::string family = args.get("graph", "grid");
  const auto side = static_cast<std::size_t>(args.get_int("side", 32, 2, 1024));
  const auto n = static_cast<std::size_t>(args.get_int("n", 2048, 2, 1 << 20));
  const double eps = args.get_positive("eps", 0.25);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string format = args.get("format", "text");
  const std::string metrics = args.get("metrics", "report");
  const std::string trace_format = args.get("trace-format", "text");
  const std::string trace_out = args.get("trace-out");
  const bool trace = args.get_bool("trace") || !trace_out.empty() ||
                     args.has("trace-format");
  args.reject_unused("oracle_stats");

  if (format != "text" && format != "json") {
    std::fprintf(stderr, "error: --format must be text or json\n");
    return 1;
  }
  if (metrics != "none" && metrics != "report" && metrics != "json" &&
      metrics != "prom") {
    std::fprintf(stderr,
                 "error: --metrics must be none, report, json, or prom\n");
    return 1;
  }
  if (trace_format != "text" && trace_format != "perfetto" &&
      trace_format != "collapsed") {
    std::fprintf(stderr,
                 "error: --trace-format must be text, perfetto, or collapsed\n");
    return 1;
  }
  if (trace) obs::set_trace_enabled(true);

  const Instance inst = make_instance(family, side, n, seed);
  util::Timer timer;
  const hierarchy::DecompositionTree tree(inst.graph, *inst.finder);
  const oracle::PathOracle oracle(tree, eps);
  const double build_seconds = timer.elapsed_seconds();

  const obs::OracleReport report = obs::oracle_report(oracle, tree);
  if (format == "json") {
    std::printf("%s", obs::report_to_json(report).c_str());
  } else {
    std::printf("%s: built in %.3fs\n%s", inst.description.c_str(),
                build_seconds, obs::format_report(report).c_str());
    // Counted once per decomposition node by the build.
    const std::uint64_t generated =
        obs::default_registry()
            .counter("oracle_connections_generated_total")
            .value();
    const std::uint64_t kept =
        obs::default_registry().counter("oracle_connections_kept_total").value();
    if (generated > 0)
      std::printf("connections: kept %llu of %llu generated (%.1f%%), "
                  "dropping the dominated ones\n",
                  static_cast<unsigned long long>(kept),
                  static_cast<unsigned long long>(generated),
                  100.0 * static_cast<double>(kept) /
                      static_cast<double>(generated));
  }

  if (metrics == "report") {
    std::printf("\nprocess metrics:\n%s",
                obs::default_registry().report().c_str());
  } else if (metrics == "json") {
    std::printf("\n%s",
                obs::metrics_to_json(obs::default_registry().snapshot())
                    .c_str());
  } else if (metrics == "prom") {
    std::printf("\n%s",
                obs::metrics_to_prometheus(obs::default_registry().snapshot())
                    .c_str());
  }

  if (trace) {
    const std::vector<obs::SpanRecord> spans = obs::drain_spans();
    std::string rendered;
    if (trace_format == "perfetto") {
      rendered = obs::trace_to_perfetto(spans);
    } else if (trace_format == "collapsed") {
      rendered = obs::trace_to_collapsed(obs::stitch_spans(spans));
    } else {
      rendered = obs::format_trace(obs::stitch_spans(spans));
    }
    if (!trace_out.empty()) {
      std::ofstream trace_file(trace_out);
      trace_file << rendered;
      std::printf("\nconstruction trace: %zu spans (%llu dropped) written to "
                  "%s as %s\n",
                  spans.size(),
                  static_cast<unsigned long long>(obs::dropped_spans()),
                  trace_out.c_str(), trace_format.c_str());
    } else {
      std::printf("\nconstruction trace (%zu spans, %llu dropped):\n%s",
                  spans.size(),
                  static_cast<unsigned long long>(obs::dropped_spans()),
                  rendered.c_str());
    }
  }

  // The cross-check that makes the report trustworthy: per-level bytes plus
  // header overhead must reproduce serialize_label() totals exactly.
  if (!verify_report_bytes(report, oracle)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pathsep::check::abort_on_failure();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
