#include "separator/validate.hpp"

#include <cmath>
#include <set>

#include "graph/connectivity.hpp"
#include "obs/metrics.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/workspace.hpp"
#include "util/table.hpp"

namespace pathsep::separator {

ValidationReport validate(const Graph& g, const PathSeparator& s) {
  static obs::Counter& validations =
      obs::default_registry().counter("separator_validations_total");
  validations.inc();
  PATHSEP_STAGE_TIMER("separator_validate_ns");
  ValidationReport report;
  report.path_count = s.path_count();
  const std::size_t n = g.num_vertices();
  auto fail = [&](std::string why) {
    report.error = std::move(why);
    return report;
  };

  std::vector<bool> removed(n, false);  // union of earlier stages
  for (std::size_t si = 0; si < s.stages.size(); ++si) {
    for (std::size_t pi = 0; pi < s.stages[si].size(); ++pi) {
      const PathSeparator::Path& path = s.stages[si][pi];
      const std::string where =
          util::strf("stage %zu path %zu", si, pi);
      if (path.empty()) return fail(where + ": empty path");
      std::set<Vertex> distinct;
      for (Vertex v : path) {
        if (v >= n) return fail(where + ": vertex out of range");
        if (removed[v])
          return fail(where + ": vertex already removed by earlier stage");
        if (!distinct.insert(v).second)
          return fail(where + ": repeated vertex within path");
      }
      // Adjacency + cost along the path.
      graph::Weight cost = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const graph::Weight w = g.edge_weight(path[i], path[i + 1]);
        if (w == graph::kInfiniteWeight)
          return fail(where + ": consecutive vertices not adjacent");
        cost += w;
      }
      // Minimality in the residual graph (P1): compare against Dijkstra
      // from the first endpoint with earlier stages masked out. The reused
      // workspace keeps hierarchy-wide validation allocation-free.
      const Vertex src[] = {path.front()};
      sssp::DijkstraWorkspace& ws = sssp::thread_workspace();
      sssp::dijkstra_masked(g, src, removed, ws);
      const graph::Weight best = ws.dist(path.back());
      if (!(cost <= best * (1 + 1e-9) + 1e-9))
        return fail(util::strf(
            "%s: cost %.12g exceeds residual shortest-path distance %.12g",
            where.c_str(), cost, best));
    }
    // Stage i is removed as a whole before stage i+1 is examined.
    for (const PathSeparator::Path& path : s.stages[si])
      for (Vertex v : path) removed[v] = true;
  }

  std::size_t removed_count = 0;
  for (bool r : removed) removed_count += r ? 1 : 0;
  report.separator_vertices = removed_count;

  const graph::Components comps = graph::connected_components(g, removed);
  report.component_count = comps.count();
  report.largest_component = comps.count() == 0 ? 0 : comps.largest();
  if (report.largest_component > n / 2)
    return fail(util::strf(
        "P3 violated: largest component %zu exceeds n/2 = %zu",
        report.largest_component, n / 2));

  report.ok = true;
  return report;
}

}  // namespace pathsep::separator
