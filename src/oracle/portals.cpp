// pathsep-lint: hot-path — request generation runs once per (vertex, path)
// and the portal fan-out once per distinct portal; scratch lives in reused
// buffers and per-thread DijkstraWorkspaces, so no expression here may
// allocate with new/make_unique.
#include "oracle/portals.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "check/audit_oracle.hpp"
#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/workspace.hpp"
#include "util/parallel.hpp"

namespace pathsep::oracle {

namespace {

/// First path index at prefix distance >= s to the right of the anchor, or
/// UINT32_MAX if the side is shorter than s.
std::uint32_t snap_right(std::span<const Weight> prefix, std::uint32_t anchor,
                         Weight s) {
  const Weight target = prefix[anchor] + s;
  auto it = std::lower_bound(prefix.begin() + anchor, prefix.end(),
                             target - 1e-12);
  if (it == prefix.end()) return UINT32_MAX;
  return static_cast<std::uint32_t>(it - prefix.begin());
}

/// First path index at prefix distance >= s to the left of the anchor.
std::uint32_t snap_left(std::span<const Weight> prefix, std::uint32_t anchor,
                        Weight s) {
  const Weight target = prefix[anchor] - s;
  // Last index with prefix <= target.
  auto it = std::upper_bound(prefix.begin(), prefix.begin() + anchor + 1,
                             target + 1e-12);
  if (it == prefix.begin()) return UINT32_MAX;
  return static_cast<std::uint32_t>(it - prefix.begin() - 1);
}

void push_unique(std::vector<std::uint32_t>& out, std::uint32_t idx) {
  if (idx != UINT32_MAX) out.push_back(idx);
}

}  // namespace

void check_epsilon(double epsilon) {
  // !(x > 0) also rejects NaN.
  if (!(epsilon > 0) || !std::isfinite(epsilon))
    throw std::invalid_argument("epsilon must be a finite number > 0, got " +
                                std::to_string(epsilon));
}

void epsilon_ladder_into(std::span<const Weight> prefix, std::uint32_t anchor,
                         Weight d, double epsilon,
                         std::vector<std::uint32_t>& out) {
  out.clear();
  if (prefix.empty()) return;
  assert(anchor < prefix.size());
  out.push_back(anchor);
  if (d <= 0) {
    // v lies on the path: along-path distances are exact via the prefix
    // sums, so the vertex itself is the only portal needed.
    return;
  }
  check_epsilon(epsilon);
  const Weight right_len = prefix.back() - prefix[anchor];
  const Weight left_len = prefix[anchor] - prefix.front();
  const double step = epsilon / 2.0;
  for (int side = 0; side < 2; ++side) {
    const Weight side_len = side == 0 ? right_len : left_len;
    Weight s = 0;
    while (s <= side_len) {
      push_unique(out, side == 0 ? snap_right(prefix, anchor, s)
                                 : snap_left(prefix, anchor, s));
      const Weight next = s + step * std::max(d, s - d);
      s = next;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<std::uint32_t> epsilon_ladder(std::span<const Weight> prefix,
                                          std::uint32_t anchor, Weight d,
                                          double epsilon) {
  std::vector<std::uint32_t> out;
  epsilon_ladder_into(prefix, anchor, d, epsilon, out);
  return out;
}

std::vector<std::uint32_t> claim1_ladder(std::span<const Weight> prefix,
                                         std::uint32_t anchor, Weight d,
                                         double aspect_ratio) {
  if (prefix.empty()) return {};
  assert(anchor < prefix.size());
  std::vector<std::uint32_t> out{anchor};
  if (d > 0) {
    const int log_delta =
        std::max(0, static_cast<int>(std::ceil(std::log2(std::max(aspect_ratio, 1.0)))));
    for (int side = 0; side < 2; ++side) {
      auto snap = [&](Weight s) {
        return side == 0 ? snap_right(prefix, anchor, s)
                         : snap_left(prefix, anchor, s);
      };
      for (int i = 0; i <= 10; ++i)
        push_unique(out, snap(static_cast<Weight>(i) / 2.0 * d));
      for (int i = 0; i <= log_delta; ++i)
        push_unique(out, snap(std::ldexp(d, i)));  // 2^i * d
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Multi-source Dijkstra from the vertices of one path in the residual graph
/// (mask = vertices removed by earlier stages), tracking the nearest source
/// index ("anchor"). Runs in the thread's workspace — no per-call O(n)
/// clears — and exports dense arrays for the compute_projections API.
PathProjection project_path(const graph::Graph& g,
                            const hierarchy::NodePath& path,
                            const std::vector<bool>& removed) {
  const std::size_t n = g.num_vertices();
  sssp::DijkstraWorkspace& ws = sssp::thread_workspace();
  sssp::dijkstra_project(g, path.verts, removed, ws);
  PathProjection out;
  out.dist.assign(n, graph::kInfiniteWeight);
  out.anchor.assign(n, 0);
  // Bulk-fill defaults, then overwrite the reached slots from the run's
  // reached list — no per-vertex stamp check on the export.
  for (const Vertex v : ws.reached_list()) {
    out.dist[v] = ws.dist(v);
    out.anchor[v] = ws.anchor(v);
  }
  return out;
}

/// Mask of vertices removed by stages strictly before `stage`.
std::vector<bool> stage_mask(const hierarchy::DecompositionNode& node,
                             std::size_t stage) {
  std::vector<bool> removed(node.graph.num_vertices(), false);
  for (const auto& path : node.paths)
    if (path.stage < stage)
      for (Vertex v : path.verts) removed[v] = true;
  return removed;
}

}  // namespace

std::vector<PathProjection> compute_projections(
    const hierarchy::DecompositionNode& node) {
  std::vector<PathProjection> out;
  out.reserve(node.paths.size());
  for (const auto& path : node.paths)
    out.push_back(project_path(node.graph, path, stage_mask(node, path.stage)));
  return out;
}

NodeConnections compute_connections(const hierarchy::DecompositionNode& node,
                                    double epsilon) {
  PATHSEP_SPAN("oracle.connections");
  PATHSEP_STAGE_TIMER("oracle_connections_ns");
  const std::size_t n = node.graph.num_vertices();
  NodeConnections out;
  out.paths.resize(node.paths.size());
  for (NodeConnections::PathLists& lists : out.paths)
    lists.offsets.assign(n + 1, 0);

  /// One (requesting vertex, portal) pair. `slot` is the request's fixed
  /// write position in list(path, v): slots follow ladder order
  /// (ascending portal index, hence non-decreasing prefix), so the finished
  /// lists are sorted by construction no matter which thread fills which
  /// slot — this is what keeps label bytes identical at every thread count.
  struct Request {
    Vertex portal;       ///< portal graph vertex (group key)
    Vertex v;            ///< requesting vertex
    std::uint32_t path;  ///< index into node.paths
    std::uint32_t idx;   ///< portal's index into that path's verts
    std::uint32_t slot;  ///< write position in list(path, v)
  };
  std::vector<Request> requests;         // reused across stages
  std::vector<Request> grouped;          // requests scattered by portal group
  std::vector<std::size_t> group_begin;  // portal group offsets into grouped
  std::vector<std::size_t> cursor;       // scatter cursors, reused
  std::vector<std::uint32_t> ladder;     // reused ladder buffer
  // Epoch-stamped portal -> group map so grouping costs O(requests) per
  // stage with no clearing pass and no comparator sort.
  std::vector<std::uint32_t> group_of(n, 0);
  std::vector<std::uint32_t> group_stamp(n, 0);
  std::uint32_t group_epoch = 0;

  // Paths are processed stage by stage: all paths of one stage share the
  // same residual graph (vertices of strictly earlier stages removed), so
  // the mask is built once per stage — incrementally — and a portal vertex
  // requested by many vertices is solved by a single masked Dijkstra.
  std::vector<bool> removed(n, false);
  std::size_t removed_count = 0;  // kept in sync with `removed` below
  const std::size_t num_stages = std::max<std::size_t>(node.num_stages, 1);
  for (std::size_t stage = 0; stage < num_stages; ++stage) {
    const std::size_t residual = n - removed_count;
    requests.clear();
    for (std::size_t pi = 0; pi < node.paths.size(); ++pi) {
      const hierarchy::NodePath& path = node.paths[pi];
      if (path.stage != stage) continue;
      static obs::Counter& projections =
          obs::default_registry().counter("oracle_path_projections_total");
      projections.inc();
      sssp::DijkstraWorkspace& ws = sssp::thread_workspace();
      sssp::dijkstra_project(node.graph, path.verts, removed, ws);
      // Only the run's reached list generates requests; sizing the path's
      // flat lists (the prefix sum below) is O(n) per path. First-touch
      // order is deterministic (this loop is serial) and cannot leak into
      // the output anyway — every connection lands in its pre-assigned slot.
      std::vector<std::size_t>& offsets = out.paths[pi].offsets;
      for (const Vertex v : ws.reached_list()) {
        epsilon_ladder_into(path.prefix, ws.anchor(v), ws.dist(v), epsilon,
                            ladder);
        offsets[v + 1] = ladder.size();
        for (std::uint32_t j = 0; j < ladder.size(); ++j)
          requests.push_back({path.verts[ladder[j]], v,
                              static_cast<std::uint32_t>(pi), ladder[j], j});
      }
      // Prefix sums turn the list lengths into the path's flat layout.
      for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
      out.paths[pi].entries.resize(offsets[n]);
    }

    // Group requests by portal vertex with a two-pass counting scatter —
    // O(requests), no comparator sort. A portal vertex pins its (path, idx)
    // — stage paths are vertex-disjoint and ladders are deduplicated — so
    // each v requests it at most once. Groups come out in first-appearance
    // order, which is deterministic (generation above is serial), and group
    // order cannot leak into the output anyway: every connection lands in
    // its pre-assigned slot.
    ++group_epoch;
    group_begin.clear();
    group_begin.push_back(0);  // counts, offset by one group for the scan
    for (const Request& r : requests) {
      if (group_stamp[r.portal] != group_epoch) {
        group_stamp[r.portal] = group_epoch;
        group_of[r.portal] =
            static_cast<std::uint32_t>(group_begin.size() - 1);
        group_begin.push_back(0);
      }
      ++group_begin[group_of[r.portal] + 1];
    }
    const std::size_t num_portals = group_begin.size() - 1;
    for (std::size_t gi = 1; gi <= num_portals; ++gi)
      group_begin[gi] += group_begin[gi - 1];
    grouped.resize(requests.size());
    // Scatter with per-group cursors; group_begin keeps the start offsets.
    cursor.assign(group_begin.begin(), group_begin.end() - 1);
    for (const Request& r : requests)
      grouped[cursor[group_of[r.portal]]++] = r;
    static obs::Counter& dijkstras =
        obs::default_registry().counter("oracle_portal_dijkstras_total");
    dijkstras.inc(num_portals);

    // One masked Dijkstra per distinct portal, early-terminated once all of
    // its requesting vertices are settled. The runs are independent
    // read-only computations writing disjoint pre-sized slots, so they fan
    // out as chunked tasks within the thread budget, one workspace per
    // thread. Tiny stages stay serial — dispatch would cost more than it
    // buys.
    const auto run_portal = [&](std::size_t gi) {
      sssp::DijkstraWorkspace& tws = sssp::thread_workspace();
      const std::size_t begin = group_begin[gi];
      const std::size_t end = group_begin[gi + 1];
      const Vertex sources[] = {grouped[begin].portal};
      if (end - begin == residual) {
        // Every residual vertex requests this portal (requesters are
        // distinct per portal), so the early-termination countdown could
        // only fire on heap exhaustion anyway: run without target
        // marking and skip the per-settle membership check.
        static obs::Counter& whole = obs::default_registry().counter(
            "oracle_whole_residual_dijkstras_total");
        whole.inc();
        sssp::dijkstra_masked(node.graph, sources, removed, tws);
      } else {
        thread_local std::vector<Vertex> targets;
        targets.clear();
        for (std::size_t i = begin; i < end; ++i)
          targets.push_back(grouped[i].v);
        sssp::dijkstra_masked_until(node.graph, sources, removed, targets,
                                    tws);
      }
      for (std::size_t i = begin; i < end; ++i) {
        const Request& req = grouped[i];
        assert(tws.reached(req.v));
        // tws.parent(v) is v's predecessor on the portal->v path, i.e.
        // v's first hop when walking toward the portal.
        out.list(req.path, req.v)[req.slot] =
            Connection{req.idx, tws.parent(req.v), tws.dist(req.v),
                       node.paths[req.path].prefix[req.idx]};
      }
    };
    if (num_portals >= 4 && n >= 2048)
      util::parallel_for(num_portals, run_portal);
    else
      for (std::size_t gi = 0; gi < num_portals; ++gi) run_portal(gi);

    // This stage's paths join the mask for the next stage's residual graph.
    for (const hierarchy::NodePath& path : node.paths)
      if (path.stage == stage)
        for (Vertex v : path.verts)
          if (!removed[v]) {
            removed[v] = true;
            ++removed_count;
          }
  }

  // Lists need no final sort: slot order is ladder order, i.e. strictly
  // increasing portal index and (since prefix sums are monotone) the
  // (prefix, path_index) order the query sweep expects. The audit validator
  // checks exactly that monotonicity.
  PATHSEP_AUDIT(check::audit_connections(node, out));
  return out;
}

}  // namespace pathsep::oracle
