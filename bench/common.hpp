// Shared workload construction for the experiment harnesses. Every bench
// binary prints the rows recorded in EXPERIMENTS.md through util::TableWriter
// so bench_output.txt and the write-up share one format.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "separator/finders.hpp"
#include "separator/validate.hpp"
#include "sssp/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pathsep::bench {

using graph::Graph;
using graph::Vertex;
using graph::Weight;

/// A generated instance plus the separator strategy appropriate for it.
struct Instance {
  std::string family;
  Graph graph;
  std::unique_ptr<separator::SeparatorFinder> finder;
};

inline Instance make_grid(std::size_t side) {
  auto gg = graph::grid(side, side);
  return {"grid", std::move(gg.graph),
          std::make_unique<separator::GridLineSeparator>(side, side)};
}

inline Instance make_triangulation(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  auto gg = graph::random_apollonian(n, rng, graph::WeightSpec::euclidean());
  return {"planar-tri", std::move(gg.graph),
          std::make_unique<separator::PlanarCycleSeparator>(gg.positions)};
}

inline Instance make_road(std::size_t side, std::uint64_t seed) {
  util::Rng rng(seed);
  auto gg = graph::road_network(side, side, rng);
  return {"road", std::move(gg.graph),
          std::make_unique<separator::PlanarCycleSeparator>(gg.positions)};
}

inline Instance make_tree(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return {"tree",
          graph::random_tree(n, rng, graph::WeightSpec::uniform_real(1, 4)),
          std::make_unique<separator::TreeCentroidSeparator>()};
}

inline Instance make_ktree(std::size_t n, std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  return {"ktree-" + std::to_string(k),
          graph::random_ktree(n, k, rng, graph::WeightSpec::uniform_real(1, 4)),
          std::make_unique<separator::TreewidthBagSeparator>()};
}

inline Instance make_series_parallel(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return {"series-parallel", graph::random_series_parallel(n, rng),
          std::make_unique<separator::TreewidthBagSeparator>()};
}

inline Instance make_outerplanar(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  auto gg = graph::random_outerplanar(n, rng, 0.9);
  return {"outerplanar", std::move(gg.graph),
          std::make_unique<separator::PlanarCycleSeparator>(gg.positions)};
}

/// The share of CPU time the hypervisor stole from this machine's vCPUs
/// over one run window, from the aggregate "cpu" line of /proc/stat (the
/// only file it reads). Construct at the start of the window; pct() is the
/// stolen share of all CPU time since then, in percent, or -1 where
/// /proc/stat cannot be read or the window is shorter than one clock tick.
/// Bench rows record it so a slow row can be told from a row that ran on
/// stolen time.
class StealWindow {
 public:
  StealWindow() : start_(read()) {}

  double pct() const {
    const Ticks end = read();
    if (!start_.ok || !end.ok || end.total <= start_.total) return -1;
    return 100.0 * static_cast<double>(end.steal - start_.steal) /
           static_cast<double>(end.total - start_.total);
  }

 private:
  struct Ticks {
    std::uint64_t total = 0, steal = 0;
    bool ok = false;
  };

  /// user nice system idle iowait irq softirq steal: the first eight
  /// fields sum to all CPU time (guest time is already inside user).
  static Ticks read() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    Ticks ticks;
    if (!(stat >> cpu) || cpu != "cpu") return ticks;
    for (int field = 0; field < 8; ++field) {
      std::uint64_t value = 0;
      if (!(stat >> value)) return ticks;
      ticks.total += value;
      if (field == 7) ticks.steal = value;
    }
    ticks.ok = true;
    return ticks;
  }

  Ticks start_;
};

/// Prints a section header in a stable, grep-friendly format.
inline void section(const std::string& experiment, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", experiment.c_str(), title.c_str());
}

}  // namespace pathsep::bench
