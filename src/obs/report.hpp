// Oracle space/stretch accounting: where the label bytes actually go.
//
// Theorem 2 promises per-vertex labels of O(k · log n · log Δ / ε) words
// built from the O(log Δ)-level (here: O(log n)-depth) decomposition.
// OracleReport makes that claim measurable: it attributes every serialized
// byte of every label to the decomposition level (depth) of the label part
// it encodes, using the per-section byte counts of the one label encoder in
// oracle/serialize.cpp, so the per-level totals plus the per-label header
// overhead reproduce serialize_label() byte counts exactly — the report is
// an audit of the wire format, not an estimate.
//
// Declared in obs/ for discoverability but compiled into pathsep_oracle
// (it consumes oracle + hierarchy types), the same layering trick as
// check/audit_<subsystem>.cpp.
#pragma once

#include <string>
#include <vector>

#include "hierarchy/decomposition_tree.hpp"
#include "oracle/path_oracle.hpp"

namespace pathsep::obs {

/// Accounting for one decomposition level (all nodes at one depth).
struct LevelReport {
  std::uint32_t depth = 0;
  std::size_t nodes = 0;             ///< decomposition nodes at this depth
  std::size_t paths = 0;             ///< separator paths over those nodes
  std::size_t path_vertices = 0;     ///< vertices on those paths
  std::size_t label_parts = 0;       ///< label parts referencing this depth
  std::size_t connections = 0;       ///< portal connections in those parts
  std::size_t serialized_bytes = 0;  ///< exact wire bytes of those parts
};

struct OracleReport {
  std::size_t num_vertices = 0;
  double epsilon = 0;
  std::uint32_t height = 0;             ///< decomposition levels
  std::size_t max_separator_paths = 0;  ///< measured k
  std::size_t total_parts = 0;
  std::size_t total_connections = 0;

  /// Per-label overhead (vertex id + part count varints) not attributable
  /// to any level; total_serialized_bytes == label_header_bytes +
  /// sum of levels[i].serialized_bytes, and equals the summed
  /// serialize_label() sizes exactly.
  std::size_t label_header_bytes = 0;
  std::size_t total_serialized_bytes = 0;
  std::size_t max_label_bytes = 0;
  double avg_label_bytes = 0;

  /// The paper's space unit (8-byte words; footnote 2) for the same labels.
  std::size_t max_label_words = 0;
  double avg_label_words = 0;

  /// Theorem 2 scaling 3 · k · ceil(log2 n) · (2/ε) · (log2 Δ + 2) words —
  /// the connection count bound (k paths per node, log n nodes per chain,
  /// ~(2/ε)(log2 Δ + O(1)) ladder portals per path, 3 words per connection)
  /// with the O(1) pinned at 2. Measured max_label_words should sit below
  /// it; EXPERIMENTS.md records the ratio.
  double theorem2_label_words_bound = 0;
  double aspect_ratio = 0;  ///< Δ estimate used in the bound

  std::vector<LevelReport> levels;  ///< indexed by depth
};

/// Builds the report for an oracle and the tree it was built from. The
/// oracle's labels must reference the tree's node ids (true for any oracle
/// constructed from `tree`, including one snapshot-round-tripped). Runs in
/// O(total label size + tree size).
OracleReport oracle_report(const oracle::PathOracle& oracle,
                           const hierarchy::DecompositionTree& tree);

/// Human-readable rendering: header lines plus a per-level table.
std::string format_report(const OracleReport& report);

/// JSON rendering for dashboards and the bench record.
std::string report_to_json(const OracleReport& report);

}  // namespace pathsep::obs
