// pathsep-lint: hot-path — the settle/relax inner loops run once per
// vertex/arc of every SSSP; all state lives in the epoch-reset
// DijkstraWorkspace, so no expression here may touch the heap.
#include "sssp/dijkstra.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sssp/workspace.hpp"

namespace pathsep::sssp {

namespace {

// Min-heap over (dist, vertex) with a total order: ties on distance break
// toward the smaller vertex id, so settle order — and therefore parent
// choices on equal-length paths — is canonical and independent of thread
// count or workspace history.
bool heap_after(const DijkstraWorkspace::HeapEntry& a,
                const DijkstraWorkspace::HeapEntry& b) {
  return a.dist > b.dist || (a.dist == b.dist && a.v > b.v);
}

/// The one Dijkstra loop. Settles into `ws` (lazy-reset arrays, reused heap);
/// allocation-free once the workspace has grown to the graph size.
///
/// kAnchors additionally propagates the nearest-source index through the
/// shortest-path tree (ws.anchor); with the smaller-id tie-break the anchors
/// are canonical — independent of workspace history and thread count.
///
/// kReached additionally appends each vertex to ws.reached_list() on its
/// first touch, so callers export the settled set without an O(n) scan.
/// Zero-cost for runs that don't ask: the tracked update compiles out.
///
/// `targets_remaining` > 0 enables early termination: the caller has marked
/// that many distinct vertices via ws.set_targets(), and the loop stops as
/// soon as the last of them settles. Settled distances/parents are final in
/// non-decreasing-distance order, so every target's result is byte-identical
/// to what an exhaustive run would produce.
template <bool kAnchors, bool kReached = false>
void run(const Graph& g, std::span<const Vertex> sources,
         const std::vector<bool>* removed, Weight radius, Vertex target,
         std::size_t targets_remaining, DijkstraWorkspace& ws) {
  const std::size_t n = g.num_vertices();
  ws.begin(n);
  if constexpr (kAnchors) ws.enable_anchors();
  if constexpr (kReached) ws.enable_reached_list();
  std::vector<DijkstraWorkspace::HeapEntry>& heap = ws.heap();
  // Work counters live in locals (registers) during the loop and are
  // flushed once per run — to the workspace and to process-wide obs
  // counters — so accounting never touches shared state in the hot loop.
  DijkstraWorkspace::WorkStats batch;
  batch.runs = 1;
  for (std::uint32_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    assert(s < n);
    assert(!removed || !(*removed)[s]);
    if (ws.dist(s) == 0) continue;
    if constexpr (kReached)
      ws.update_tracked(s, 0, graph::kInvalidVertex);
    else
      ws.update(s, 0, graph::kInvalidVertex);
    if constexpr (kAnchors) ws.set_anchor(s, i);
    heap.push_back({0, s});
    std::push_heap(heap.begin(), heap.end(), heap_after);
    ++batch.heap_pushes;
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_after);
    const auto [d, v] = heap.back();
    heap.pop_back();
    ++batch.heap_pops;
    if (d > ws.dist(v)) continue;  // stale entry
    ++batch.settled;
    if (d > radius) break;
    if (v == target) break;
    // v's distance and parent are final here, so once the last target
    // settles nothing downstream is needed — not even v's own relaxations.
    if (targets_remaining > 0 && ws.is_target(v) && --targets_remaining == 0)
      break;
    for (const graph::Arc& a : g.neighbors(v)) {
      if (removed && (*removed)[a.to]) continue;
      const Weight nd = d + a.weight;
      if (nd < ws.dist(a.to)) {
        if constexpr (kReached)
          ws.update_tracked(a.to, nd, v);
        else
          ws.update(a.to, nd, v);
        if constexpr (kAnchors) ws.set_anchor(a.to, ws.anchor(v));
        heap.push_back({nd, a.to});
        std::push_heap(heap.begin(), heap.end(), heap_after);
        ++batch.relaxed;
        ++batch.heap_pushes;
      }
    }
  }
  ws.record_work(batch);
  using obs::Counter;
  static Counter& runs =
      obs::default_registry().counter("sssp_dijkstra_runs_total");
  static Counter& settled =
      obs::default_registry().counter("sssp_dijkstra_settled_total");
  static Counter& relaxed =
      obs::default_registry().counter("sssp_dijkstra_relaxed_total");
  static Counter& pushes =
      obs::default_registry().counter("sssp_dijkstra_heap_pushes_total");
  static Counter& pops =
      obs::default_registry().counter("sssp_dijkstra_heap_pops_total");
  runs.inc();
  settled.inc(batch.settled);
  relaxed.inc(batch.relaxed);
  pushes.inc(batch.heap_pushes);
  pops.inc(batch.heap_pops);
}

/// Legacy dense-output path: run in the thread's workspace, then export.
/// The two O(n) export writes cost what the old per-call array clears did,
/// so callers of the ShortestPaths API are no worse off than before.
ShortestPaths run_dense(const Graph& g, std::span<const Vertex> sources,
                        const std::vector<bool>* removed, Weight radius,
                        Vertex target) {
  DijkstraWorkspace& ws = thread_workspace();
  run<false>(g, sources, removed, radius, target, 0, ws);
  const std::size_t n = g.num_vertices();
  ShortestPaths sp;
  sp.dist.resize(n);
  sp.parent.resize(n);
  for (Vertex v = 0; v < n; ++v) {
    sp.dist[v] = ws.dist(v);
    sp.parent[v] = ws.parent(v);
  }
  return sp;
}

}  // namespace

ShortestPaths dijkstra(const Graph& g, Vertex source) {
  const Vertex sources[] = {source};
  return run_dense(g, sources, nullptr, graph::kInfiniteWeight,
                   graph::kInvalidVertex);
}

ShortestPaths dijkstra(const Graph& g, std::span<const Vertex> sources) {
  return run_dense(g, sources, nullptr, graph::kInfiniteWeight,
                   graph::kInvalidVertex);
}

ShortestPaths dijkstra_masked(const Graph& g, std::span<const Vertex> sources,
                              const std::vector<bool>& removed) {
  assert(removed.empty() || removed.size() == g.num_vertices());
  return run_dense(g, sources, removed.empty() ? nullptr : &removed,
                   graph::kInfiniteWeight, graph::kInvalidVertex);
}

ShortestPaths dijkstra_bounded(const Graph& g, Vertex source, Weight radius) {
  const Vertex sources[] = {source};
  return run_dense(g, sources, nullptr, radius, graph::kInvalidVertex);
}

void dijkstra(const Graph& g, Vertex source, DijkstraWorkspace& ws) {
  const Vertex sources[] = {source};
  run<false>(g, sources, nullptr, graph::kInfiniteWeight,
             graph::kInvalidVertex, 0, ws);
}

void dijkstra(const Graph& g, std::span<const Vertex> sources,
              DijkstraWorkspace& ws) {
  run<false>(g, sources, nullptr, graph::kInfiniteWeight,
             graph::kInvalidVertex, 0, ws);
}

void dijkstra_masked(const Graph& g, std::span<const Vertex> sources,
                     const std::vector<bool>& removed, DijkstraWorkspace& ws) {
  assert(removed.empty() || removed.size() == g.num_vertices());
  run<false>(g, sources, removed.empty() ? nullptr : &removed,
             graph::kInfiniteWeight, graph::kInvalidVertex, 0, ws);
}

void dijkstra_project(const Graph& g, std::span<const Vertex> sources,
                      const std::vector<bool>& removed,
                      DijkstraWorkspace& ws) {
  assert(removed.empty() || removed.size() == g.num_vertices());
  run<true, true>(g, sources, removed.empty() ? nullptr : &removed,
                  graph::kInfiniteWeight, graph::kInvalidVertex, 0, ws);
}

void dijkstra_masked_until(const Graph& g, std::span<const Vertex> sources,
                           const std::vector<bool>& removed,
                           std::span<const Vertex> targets,
                           DijkstraWorkspace& ws) {
  assert(removed.empty() || removed.size() == g.num_vertices());
  const std::size_t remaining = ws.set_targets(g.num_vertices(), targets);
  run<false>(g, sources, removed.empty() ? nullptr : &removed,
             graph::kInfiniteWeight, graph::kInvalidVertex, remaining, ws);
}

Weight distance(const Graph& g, Vertex s, Vertex t) {
  const Vertex sources[] = {s};
  DijkstraWorkspace& ws = thread_workspace();
  run<false>(g, sources, nullptr, graph::kInfiniteWeight, t, 0, ws);
  return ws.dist(t);
}

std::vector<Vertex> extract_path(const ShortestPaths& sp, Vertex t) {
  if (!sp.reached(t)) return {};
  std::vector<Vertex> path;
  for (Vertex v = t; v != graph::kInvalidVertex; v = sp.parent[v]) {
    path.push_back(v);
    if (path.size() > sp.parent.size())
      throw std::logic_error("parent cycle in shortest-path tree");
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Vertex> extract_path(const DijkstraWorkspace& ws, Vertex t) {
  if (!ws.reached(t)) return {};
  std::vector<Vertex> path;
  for (Vertex v = t; v != graph::kInvalidVertex; v = ws.parent(v)) {
    path.push_back(v);
    if (path.size() > ws.num_vertices())
      throw std::logic_error("parent cycle in shortest-path tree");
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Weight path_cost(const Graph& g, std::span<const Vertex> path) {
  Weight total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Weight w = g.edge_weight(path[i], path[i + 1]);
    if (w == graph::kInfiniteWeight)
      throw std::invalid_argument("path edge missing from graph");
    total += w;
  }
  return total;
}

}  // namespace pathsep::sssp
