#include "flow/flow_separator.hpp"

#include <algorithm>

#include "check/audit_separator.hpp"
#include "check/check.hpp"
#include "flow/inertial.hpp"
#include "graph/connectivity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/workspace.hpp"

namespace pathsep::flow {

namespace {

using graph::Weight;
using separator::PathSeparator;

/// Early-exit masked Dijkstra from `source`, stopping as soon as another
/// `wanted` vertex settles (the nearest one — ties toward the smaller id,
/// because settling order is (dist, id) ascending). Returns that vertex, or
/// `source` when no other wanted vertex is reachable. Keeping the hop short
/// keeps the cover tight: each stage path adds almost no vertices beyond the
/// cut itself. The shortest-path tree stays in `ws` for path extraction.
Vertex cover_sweep(const Graph& g, Vertex source,
                   const std::vector<bool>& removed,
                   const std::vector<char>& wanted,
                   sssp::DijkstraWorkspace& ws) {
  ws.begin(g.num_vertices());
  auto& heap = ws.heap();
  auto later = [](const sssp::DijkstraWorkspace::HeapEntry& a,
                  const sssp::DijkstraWorkspace::HeapEntry& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.v > b.v;
  };
  ws.update(source, 0, graph::kInvalidVertex);
  heap.push_back({0, source});

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const sssp::DijkstraWorkspace::HeapEntry top = heap.back();
    heap.pop_back();
    if (top.dist != ws.dist(top.v)) continue;  // stale entry
    if (wanted[top.v] && top.v != source) return top.v;
    for (const graph::Arc& arc : g.neighbors(top.v)) {
      if (!removed.empty() && removed[arc.to]) continue;
      const Weight next = top.dist + arc.weight;
      const Weight old = ws.dist(arc.to);
      if (next < old) {
        ws.update(arc.to, next, top.v);
        heap.push_back({next, arc.to});
        std::push_heap(heap.begin(), heap.end(), later);
      } else if (next == old && top.v < ws.parent(arc.to)) {
        // Canonical shortest-path tree: equal-cost parents break toward the
        // smaller id, matching sssp::dijkstra's rule.
        ws.update(arc.to, next, top.v);
      }
    }
  }
  return source;
}

std::vector<Vertex> walk_path(const sssp::DijkstraWorkspace& ws, Vertex t) {
  std::vector<Vertex> path;
  for (Vertex v = t; v != graph::kInvalidVertex; v = ws.parent(v))
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Deterministic pseudo-diameter shortest path inside the masked component
/// holding `members`: the progress guarantee when the cutter finds nothing.
std::vector<Vertex> diameter_path(const Graph& g,
                                  std::span<const Vertex> members,
                                  const std::vector<bool>& removed) {
  sssp::DijkstraWorkspace& ws = sssp::thread_workspace();
  auto farthest = [&](Vertex from) {
    const Vertex src[] = {from};
    sssp::dijkstra_masked(g, src, removed, ws);
    Vertex far = from;
    Weight far_dist = 0;
    for (const Vertex v : members)
      if (ws.dist(v) != graph::kInfiniteWeight && ws.dist(v) > far_dist) {
        far_dist = ws.dist(v);
        far = v;
      }
    return far;
  };
  const Vertex a = farthest(members[0]);
  const Vertex b = farthest(a);
  return sssp::extract_path(ws, b);
}

}  // namespace

FlowSeparator::FlowSeparator(
    std::optional<std::vector<graph::Point>> root_positions,
    FlowSeparatorOptions options)
    : positions_(std::move(root_positions)), options_(options) {}

ParetoFront FlowSeparator::cut_component(const Graph& g,
                                         std::span<const Vertex> root_ids,
                                         std::span<const Vertex> members,
                                         const std::vector<bool>& removed) const {
  ParetoFront front;
  CutterOptions cutter;
  cutter.balance_eps = options_.balance_eps;
  cutter.max_cut = options_.max_cut;
  if (positions_) {
    for (std::uint32_t dir = 0; dir < kNumInertialDirections; ++dir) {
      cutter.direction = dir;
      const std::vector<double> scores =
          inertial_scores(members, root_ids, *positions_, dir);
      flow_cutter(g, members, removed, scores, cutter, front);
    }
  } else {
    cutter.direction = 0;
    const std::vector<double> scores = sweep_scores(g, members, removed);
    flow_cutter(g, members, removed, scores, cutter, front);
  }
  return front;
}

PathSeparator FlowSeparator::find(const Graph& g,
                                  std::span<const Vertex> root_ids) const {
  PATHSEP_SPAN("flow_separator_find");
  const std::size_t n = g.num_vertices();
  PathSeparator s;
  if (n == 0) return s;

  std::vector<bool> removed(n, false);
  std::vector<char> wanted(n, 0);
  for (;;) {
    const graph::Components comps = graph::connected_components(g, removed);
    if (comps.count() == 0 || comps.largest() <= n / 2) break;

    const std::uint32_t big = comps.largest_id();
    std::vector<Vertex> members;
    members.reserve(comps.largest());
    for (Vertex v = 0; v < n; ++v)
      if (comps.label[v] == big) members.push_back(v);

    // Pick the cut: smallest one that halves the component, else the most
    // balanced one (the outer loop then cuts the remainder again), else —
    // when the cutter gave up, e.g. on expander-like components whose cuts
    // blow the flow budget — a pseudo-diameter path for greedy progress.
    std::vector<Vertex> to_cover;
    if (members.size() > options_.small_component) {
      const ParetoFront front = cut_component(g, root_ids, members, removed);
      const CutCandidate* chosen = front.best_within(n / 2);
      if (chosen == nullptr) chosen = front.most_balanced();
      if (chosen != nullptr) to_cover = chosen->cut;
    }
    if (to_cover.empty()) {
      const std::vector<Vertex> path = diameter_path(g, members, removed);
      s.stages.push_back({path});
      for (const Vertex v : path) removed[v] = true;
      obs::default_registry().counter("flow_fallback_paths_total").inc();
      continue;
    }
    obs::default_registry().counter("flow_cuts_total").inc();

    // Cover the cut with shortest paths, one stage each: vertex a is the
    // smallest uncovered cut vertex, b the nearest other uncovered one, and
    // the canonical shortest a→b path becomes the next stage. Nearest keeps
    // the paths short, so the separator stays close to the cut size instead
    // of dragging in vertices far from the cut. Each path is shortest in g
    // minus all earlier stages (the mask grows as paths land), so P1 holds
    // by construction.
    std::size_t uncovered = to_cover.size();
    for (const Vertex v : to_cover) wanted[v] = 1;
    while (uncovered > 0) {
      Vertex a = graph::kInvalidVertex;
      for (const Vertex v : to_cover)
        if (wanted[v] != 0) {
          a = v;
          break;
        }
      sssp::DijkstraWorkspace& ws = sssp::thread_workspace();
      const Vertex b = cover_sweep(g, a, removed, wanted, ws);
      const std::vector<Vertex> path = walk_path(ws, b);
      s.stages.push_back({path});
      for (const Vertex v : path) {
        removed[v] = true;
        if (wanted[v] != 0) {
          wanted[v] = 0;
          --uncovered;
        }
      }
    }
  }

  PATHSEP_AUDIT(check::audit_separator(g, s));
  return s;
}

ParetoFront FlowSeparator::pareto_front(const Graph& g,
                                        std::span<const Vertex> root_ids) const {
  const std::size_t n = g.num_vertices();
  const std::vector<bool> removed(n, false);
  const graph::Components comps = graph::connected_components(g, removed);
  ParetoFront front;
  if (comps.count() == 0) return front;
  const std::uint32_t big = comps.largest_id();
  std::vector<Vertex> members;
  members.reserve(comps.largest());
  for (Vertex v = 0; v < n; ++v)
    if (comps.label[v] == big) members.push_back(v);
  return cut_component(g, root_ids, members, removed);
}

}  // namespace pathsep::flow
