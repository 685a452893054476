#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/check.hpp"
#include "oracle/serialize.hpp"
#include "sssp/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace pathsep::obs {

OracleReport oracle_report(const oracle::PathOracle& oracle,
                           const hierarchy::DecompositionTree& tree) {
  OracleReport report;
  report.num_vertices = oracle.num_vertices();
  report.epsilon = oracle.epsilon();
  report.height = tree.height();
  report.max_separator_paths = tree.max_separator_paths();
  report.levels.resize(report.height);
  for (std::uint32_t d = 0; d < report.height; ++d) report.levels[d].depth = d;

  for (const hierarchy::DecompositionNode& node : tree.nodes()) {
    LevelReport& level = report.levels[node.depth];
    ++level.nodes;
    level.paths += node.paths.size();
    for (const hierarchy::NodePath& path : node.paths)
      level.path_vertices += path.verts.size();
  }

  // The wire encoder's per-section byte counts: each part's bytes go to the
  // depth of its decomposition node and the per-label header to a separate
  // bucket, so the totals reconcile with serialize_label() to the byte.
  for (std::size_t v = 0; v < oracle.num_vertices(); ++v) {
    const oracle::LabelView label = oracle.label(static_cast<graph::Vertex>(v));
    const std::vector<std::size_t> sections =
        oracle::serialized_section_bytes(label);
    std::size_t label_bytes = sections[0];
    report.label_header_bytes += label_bytes;
    for (std::size_t p = 0; p < label.num_parts(); ++p) {
      const oracle::LabelPart& part = label.part(p);
      const std::size_t part_bytes = sections[1 + p];
      const std::size_t connections = label.cold(p).size();
      PATHSEP_ASSERT(part.node >= 0 &&
                         static_cast<std::size_t>(part.node) <
                             tree.nodes().size(),
                     "label part references node ", part.node,
                     " outside the decomposition tree");
      LevelReport& level =
          report.levels[tree.node(part.node).depth];
      ++level.label_parts;
      level.connections += connections;
      level.serialized_bytes += part_bytes;
      label_bytes += part_bytes;

      ++report.total_parts;
      report.total_connections += connections;
    }
    report.total_serialized_bytes += label_bytes;
    report.max_label_bytes = std::max(report.max_label_bytes, label_bytes);
  }
  report.avg_label_bytes =
      report.num_vertices == 0
          ? 0.0
          : static_cast<double>(report.total_serialized_bytes) /
                static_cast<double>(report.num_vertices);

  report.max_label_words = oracle.max_label_words();
  report.avg_label_words = oracle.average_label_words();

  // Theorem 2 scaling (see header comment). The Δ estimate is the cheap
  // double-sweep one — it errs in either direction, but only enters through
  // log2, so the bound column is stable enough to compare runs.
  util::Rng rng(1);
  report.aspect_ratio =
      sssp::aspect_ratio_estimate(tree.root_graph(), rng);
  const double log_n = std::max(
      1.0, std::ceil(std::log2(static_cast<double>(
               std::max<std::size_t>(report.num_vertices, 2)))));
  const double log_delta = std::log2(std::max(report.aspect_ratio, 2.0));
  report.theorem2_label_words_bound =
      3.0 * static_cast<double>(report.max_separator_paths) * log_n *
      (2.0 / report.epsilon) * (log_delta + 2.0);
  return report;
}

std::string format_report(const OracleReport& report) {
  std::ostringstream out;
  out << "OracleReport: n=" << report.num_vertices
      << " eps=" << report.epsilon << " height=" << report.height
      << " k=" << report.max_separator_paths << "\n"
      << "  labels: " << report.total_parts << " parts, "
      << report.total_connections << " connections, "
      << report.total_serialized_bytes << " serialized bytes ("
      << report.label_header_bytes << " label-header overhead)\n"
      << "  per label: avg " << report.avg_label_bytes << " bytes / "
      << report.avg_label_words << " words, max " << report.max_label_bytes
      << " bytes / " << report.max_label_words << " words\n"
      << "  Theorem 2 word bound (3k·log n·(2/eps)·(log Δ+2), Δ~"
      << report.aspect_ratio << "): " << report.theorem2_label_words_bound
      << " words -> measured max/bound = "
      << (report.theorem2_label_words_bound > 0
              ? static_cast<double>(report.max_label_words) /
                    report.theorem2_label_words_bound
              : 0.0)
      << "\n";
  util::TableWriter table({"depth", "nodes", "paths", "path_verts", "parts",
                           "connections", "bytes"});
  for (const LevelReport& level : report.levels)
    table.add_row({std::to_string(level.depth), std::to_string(level.nodes),
                   std::to_string(level.paths),
                   std::to_string(level.path_vertices),
                   std::to_string(level.label_parts),
                   std::to_string(level.connections),
                   std::to_string(level.serialized_bytes)});
  table.print(out);
  return out.str();
}

std::string report_to_json(const OracleReport& report) {
  std::ostringstream out;
  out << "{\n  \"num_vertices\": " << report.num_vertices
      << ",\n  \"epsilon\": " << report.epsilon
      << ",\n  \"height\": " << report.height
      << ",\n  \"max_separator_paths\": " << report.max_separator_paths
      << ",\n  \"total_parts\": " << report.total_parts
      << ",\n  \"total_connections\": " << report.total_connections
      << ",\n  \"label_header_bytes\": " << report.label_header_bytes
      << ",\n  \"total_serialized_bytes\": " << report.total_serialized_bytes
      << ",\n  \"max_label_bytes\": " << report.max_label_bytes
      << ",\n  \"avg_label_bytes\": " << report.avg_label_bytes
      << ",\n  \"max_label_words\": " << report.max_label_words
      << ",\n  \"avg_label_words\": " << report.avg_label_words
      << ",\n  \"theorem2_label_words_bound\": "
      << report.theorem2_label_words_bound
      << ",\n  \"aspect_ratio\": " << report.aspect_ratio
      << ",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < report.levels.size(); ++i) {
    const LevelReport& level = report.levels[i];
    out << "    {\"depth\": " << level.depth << ", \"nodes\": " << level.nodes
        << ", \"paths\": " << level.paths
        << ", \"path_vertices\": " << level.path_vertices
        << ", \"label_parts\": " << level.label_parts
        << ", \"connections\": " << level.connections
        << ", \"serialized_bytes\": " << level.serialized_bytes << "}"
        << (i + 1 < report.levels.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace pathsep::obs
