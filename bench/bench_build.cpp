// E17 — end-to-end construction throughput of the parallel pipeline.
//
// Measures decomposition-tree build plus label build across thread counts on
// the two heaviest families (grid, planar triangulation), records wall-clock
// seconds — with the label build split into its connection-computation and
// label-assembly stages so regressions are attributable, and the connection
// stage divided by the Dijkstra settles it made (wall ns per settle) — and
// hashes the
// serialized labels per thread count to demonstrate the determinism
// guarantee: every thread count must produce the same digest (enforced with
// --require-equal-digests, which exits non-zero on any mismatch). Results go
// to stdout as a table and to --out (default BENCH_build.json) as JSON for
// the repo record, stamped with the git sha and build type, each row with
// the host's CPU steal over its window (/proc/stat; -1 where unmeasured).
// Each row sets the process-wide thread budget (util::set_threads), so a
// row of N threads runs on at most N cores, and builds kRepeats times: its
// times are medians, with the min and max of conn_s beside them.
//
// Usage:
//   bench_build [--out=BENCH_build.json] [--grid-side=320] [--planar-n=60000]
//               [--threads=1,2,4,8] [--epsilon=0.5]
//               [--big-grid-side=0] [--big-threads=1,8]
//               [--require-equal-digests]
//
// --big-grid-side adds a large perturbed-grid instance (side 1024 = 1,048,576
// vertices) measured only at the --big-threads counts, so the million-vertex
// record does not multiply the whole default thread sweep.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"
#include "git_sha.h"  // PATHSEP_GIT_SHA, written at build time
#include "obs/metrics.hpp"
#include "oracle/labels.hpp"
#include "oracle/serialize.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"

namespace pathsep::bench {
namespace {

/// FNV-1a over the serialized labels — a stable digest of the whole oracle.
std::uint64_t label_digest(const oracle::LabelArena& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (Vertex v = 0; v < labels.num_vertices(); ++v)
    for (std::uint8_t byte : oracle::serialize_label(labels.label(v))) {
      h ^= byte;
      h *= 1099511628211ULL;
    }
  return h;
}

/// Builds per row; the row reports each time's median over them.
constexpr std::size_t kRepeats = 3;

/// One tree + label build.
struct Build {
  double tree_seconds = 0;
  double label_seconds = 0;
  double connections_seconds = 0;  ///< projections + portal Dijkstras
  double assemble_seconds = 0;     ///< per-vertex label assembly
  std::uint64_t settled = 0;       ///< Dijkstra settles of the label build
  std::uint64_t digest = 0;
};

/// One table row: kRepeats builds at one thread budget.
struct Run {
  std::string family;
  std::size_t n = 0;
  std::size_t threads = 0;
  double tree_seconds = 0;         ///< medians over the row's builds
  double label_seconds = 0;
  double connections_seconds = 0;
  double connections_min = 0;
  double connections_max = 0;
  double assemble_seconds = 0;
  std::uint64_t settled = 0;       ///< same in every build (checked)
  double ns_per_settle = 0;        ///< median conn_s / settled, wall ns
  double speedup = 0;  ///< total vs the threads=1 total of the same family
  double steal_pct = 0;  ///< host steal over the row's window (StealWindow)
  std::uint64_t digest = 0;
  bool consistent = true;  ///< every build had the same digest and settles
};

Build build_once(const Instance& inst, double epsilon) {
  static const obs::Counter& settled =
      obs::default_registry().counter("sssp_dijkstra_settled_total");
  Build b;
  util::Timer timer;
  const hierarchy::DecompositionTree tree(inst.graph, *inst.finder);
  b.tree_seconds = timer.elapsed_seconds();

  const std::uint64_t settled_before = settled.value();
  timer.reset();
  oracle::BuildLabelsStats stats;
  const auto labels = oracle::build_labels(tree, epsilon, &stats);
  b.label_seconds = timer.elapsed_seconds();
  b.settled = settled.value() - settled_before;
  b.connections_seconds = stats.connections_seconds;
  b.assemble_seconds = stats.assemble_seconds;
  b.digest = label_digest(labels);
  return b;
}

double median_of(std::vector<Build>& builds, double Build::*field) {
  std::sort(builds.begin(), builds.end(),
            [field](const Build& a, const Build& b) {
              return a.*field < b.*field;
            });
  return builds[builds.size() / 2].*field;
}

Run measure(const Instance& inst, std::size_t threads, double epsilon) {
  Run run;
  run.family = inst.family;
  run.n = inst.graph.num_vertices();
  run.threads = threads;

  util::set_threads(threads);
  const StealWindow steal;
  std::vector<Build> builds;
  for (std::size_t i = 0; i < kRepeats; ++i)
    builds.push_back(build_once(inst, epsilon));
  run.steal_pct = steal.pct();
  run.digest = builds.front().digest;
  run.settled = builds.front().settled;
  for (const Build& b : builds)
    run.consistent = run.consistent && b.digest == run.digest &&
                     b.settled == run.settled;
  run.tree_seconds = median_of(builds, &Build::tree_seconds);
  run.label_seconds = median_of(builds, &Build::label_seconds);
  run.assemble_seconds = median_of(builds, &Build::assemble_seconds);
  run.connections_seconds = median_of(builds, &Build::connections_seconds);
  run.connections_min = builds.front().connections_seconds;  // sorted by it
  run.connections_max = builds.back().connections_seconds;
  run.ns_per_settle =
      run.settled > 0 ? 1e9 * run.connections_seconds / run.settled : 0;
  return run;
}

/// Flag `--name`'s comma-separated thread budgets; throws
/// std::invalid_argument naming the flag unless each is a whole number in
/// [1, util::kMaxThreads].
std::vector<std::size_t> parse_threads(const std::string& name,
                                       const std::string& spec) {
  std::vector<std::size_t> out;
  std::istringstream in(spec);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (tok.empty()) continue;
    std::size_t value = 0;
    const char* end = tok.data() + tok.size();
    const auto [at, ec] = std::from_chars(tok.data(), end, value);
    if (ec != std::errc{} || at != end || value == 0 ||
        value > util::kMaxThreads)
      throw std::invalid_argument(
          "--" + name + " expects thread counts in [1, " +
          std::to_string(util::kMaxThreads) + "], got '" + spec + "'");
    out.push_back(value);
  }
  return out;
}

int run_main(const util::Args& args) {
  const std::string out_path = args.get("out", "BENCH_build.json");
  const std::size_t grid_side =
      static_cast<std::size_t>(args.get_int("grid-side", 320, 2, 2048));
  const std::size_t planar_n =
      static_cast<std::size_t>(args.get_int("planar-n", 60000, 3, 1 << 22));
  const std::size_t big_grid_side =
      static_cast<std::size_t>(args.get_int("big-grid-side", 0, 0, 2048));
  const double epsilon = args.get_double("epsilon", 0.5);
  const std::vector<std::size_t> thread_counts =
      parse_threads("threads", args.get("threads", "1,2,4,8"));
  const std::vector<std::size_t> big_thread_counts =
      parse_threads("big-threads", args.get("big-threads", "1,8"));
  const bool require_equal_digests = args.get_bool("require-equal-digests");
  args.reject_unused("bench_build");

  section("E17", "end-to-end construction: tree + labels vs thread count");
  std::printf("hardware_concurrency=%u default_threads=%zu build=%s sha=%s\n",
              std::thread::hardware_concurrency(), util::default_threads(),
              PATHSEP_BUILD_TYPE, PATHSEP_GIT_SHA);

  // (instance, thread counts to sweep) — the big grid gets its own, shorter
  // sweep so the million-vertex record doesn't multiply the default matrix.
  std::vector<std::pair<Instance, const std::vector<std::size_t>*>> plan;
  plan.emplace_back(make_grid(grid_side), &thread_counts);
  plan.emplace_back(make_triangulation(planar_n, 12345), &thread_counts);
  if (big_grid_side > 0)
    plan.emplace_back(make_grid(big_grid_side), &big_thread_counts);

  util::TableWriter table(
      {"family", "n", "threads", "tree_s", "conn_s", "conn_min", "conn_max",
       "asm_s", "labels_s", "total_s", "speedup", "settled", "ns/settle",
       "digest"});
  std::vector<Run> runs;
  for (const auto& [inst, counts] : plan) {
    double serial_total = 0;
    for (std::size_t threads : *counts) {
      Run run = measure(inst, threads, epsilon);
      const double total = run.tree_seconds + run.label_seconds;
      if (threads == counts->front()) serial_total = total;
      run.speedup = total > 0 ? serial_total / total : 1.0;
      table.add_row({inst.family, std::to_string(run.n),
                     std::to_string(run.threads),
                     util::strf("%.3f", run.tree_seconds),
                     util::strf("%.3f", run.connections_seconds),
                     util::strf("%.3f", run.connections_min),
                     util::strf("%.3f", run.connections_max),
                     util::strf("%.3f", run.assemble_seconds),
                     util::strf("%.3f", run.label_seconds),
                     util::strf("%.3f", total), util::strf("%.2f", run.speedup),
                     std::to_string(run.settled),
                     util::strf("%.1f", run.ns_per_settle),
                     util::strf("%016llx",
                                static_cast<unsigned long long>(run.digest))});
      runs.push_back(run);
    }
  }
  table.print(std::cout);

  // Determinism cross-check: within one (family, n) instance every build at
  // every thread count must hash to the same bytes.
  bool digests_match = true;
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> first_digest;
  for (const Run& r : runs) {
    if (!r.consistent) {
      digests_match = false;
      std::fprintf(stderr,
                   "repeat mismatch: %s n=%zu threads=%zu builds differ in "
                   "digest or settles\n",
                   r.family.c_str(), r.n, r.threads);
    }
    const auto key = std::make_pair(r.family, r.n);
    const auto [it, inserted] = first_digest.emplace(key, r.digest);
    if (!inserted && it->second != r.digest) {
      digests_match = false;
      std::fprintf(stderr,
                   "digest mismatch: %s n=%zu threads=%zu got %016llx "
                   "expected %016llx\n",
                   r.family.c_str(), r.n, r.threads,
                   static_cast<unsigned long long>(r.digest),
                   static_cast<unsigned long long>(it->second));
    }
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"bench_build\",\n  \"epsilon\": " << epsilon
      << ",\n  \"git_sha\": \"" << PATHSEP_GIT_SHA << "\""
      << ",\n  \"build_type\": \"" << PATHSEP_BUILD_TYPE << "\""
      << ",\n  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n  \"default_threads\": " << util::default_threads()
      << ",\n  \"repeats\": " << kRepeats
      << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out << "    {\"family\": \"" << r.family << "\", \"n\": " << r.n
        << ", \"threads\": " << r.threads << ", \"tree_seconds\": "
        << r.tree_seconds << ", \"connections_seconds\": "
        << r.connections_seconds << ", \"connections_seconds_min\": "
        << r.connections_min << ", \"connections_seconds_max\": "
        << r.connections_max << ", \"assemble_seconds\": "
        << r.assemble_seconds << ", \"label_seconds\": " << r.label_seconds
        << ", \"settled\": " << r.settled << ", \"ns_per_settle\": "
        << util::strf("%.1f", r.ns_per_settle)
        << ", \"speedup_vs_first\": " << r.speedup
        << ", \"steal_pct\": " << util::strf("%.1f", r.steal_pct)
        << ", \"label_digest\": \""
        << std::hex << r.digest << std::dec << "\"}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  if (require_equal_digests && !digests_match) {
    std::fprintf(stderr, "--require-equal-digests: FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pathsep::bench

int main(int argc, char** argv) {
  // A misspelt or malformed flag fails before any build work.
  try {
    return pathsep::bench::run_main(pathsep::util::Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
