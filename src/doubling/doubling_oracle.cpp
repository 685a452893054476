#include "doubling/doubling_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <stdexcept>

#include "graph/subgraph.hpp"
#include "sssp/dijkstra.hpp"

namespace pathsep::doubling {

namespace {

struct PlaneInfo {
  std::vector<Vertex> local_verts;          ///< plane vertices, local ids
  std::vector<std::pair<int, int>> coords;  ///< (a, b) per plane vertex
  std::size_t extent_a = 0, extent_b = 0;
};

/// Plane vertices of a node, in the *local* ids of the box subgraph whose
/// to_parent entries are global mesh ids.
PlaneInfo plane_info(const graph::Mesh3D& mesh,
                     const Mesh3DDecomposition::Node& node,
                     const std::vector<Vertex>& from_global) {
  PlaneInfo info;
  const MeshBox& b = node.box;
  auto push = [&](Vertex global, int a, int bb) {
    const Vertex local = from_global[global];
    if (local == graph::kInvalidVertex)
      throw std::logic_error("plane vertex missing from box subgraph");
    info.local_verts.push_back(local);
    info.coords.push_back({a, bb});
  };
  if (node.axis == 0) {
    info.extent_a = b.extent(1);
    info.extent_b = b.extent(2);
    for (std::size_t z = b.z0; z <= b.z1; ++z)
      for (std::size_t y = b.y0; y <= b.y1; ++y)
        push(mesh.at(node.cut, y, z), static_cast<int>(y - b.y0),
             static_cast<int>(z - b.z0));
  } else if (node.axis == 1) {
    info.extent_a = b.extent(0);
    info.extent_b = b.extent(2);
    for (std::size_t z = b.z0; z <= b.z1; ++z)
      for (std::size_t x = b.x0; x <= b.x1; ++x)
        push(mesh.at(x, node.cut, z), static_cast<int>(x - b.x0),
             static_cast<int>(z - b.z0));
  } else {
    info.extent_a = b.extent(0);
    info.extent_b = b.extent(1);
    for (std::size_t y = b.y0; y <= b.y1; ++y)
      for (std::size_t x = b.x0; x <= b.x1; ++x)
        push(mesh.at(x, y, node.cut), static_cast<int>(x - b.x0),
             static_cast<int>(y - b.y0));
  }
  return info;
}

/// Multi-source Dijkstra from the plane, tracking the nearest plane index.
void project_plane(const graph::Graph& g, const PlaneInfo& plane,
                   std::vector<Weight>& dist, std::vector<std::uint32_t>& anchor) {
  const std::size_t n = g.num_vertices();
  dist.assign(n, graph::kInfiniteWeight);
  anchor.assign(n, 0);
  struct Entry {
    Weight d;
    Vertex v;
    bool operator>(const Entry& o) const { return d > o.d; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  for (std::uint32_t i = 0; i < plane.local_verts.size(); ++i) {
    dist[plane.local_verts[i]] = 0;
    anchor[plane.local_verts[i]] = i;
    queue.push({0, plane.local_verts[i]});
  }
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[v]) continue;
    for (const graph::Arc& a : g.neighbors(v)) {
      const Weight nd = d + a.weight;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        anchor[a.to] = anchor[v];
        queue.push({nd, a.to});
      }
    }
  }
}

/// Multi-scale lattice net around (a0, b0): ring j holds lattice points of
/// spacing δ_j at L1 distance in [s_j - 2δ_j, s_{j+1} + 2δ_j].
std::vector<std::pair<int, int>> lattice_net(int a0, int b0, std::size_t ea,
                                             std::size_t eb, double d,
                                             double epsilon) {
  std::vector<std::pair<int, int>> out{{a0, b0}};
  if (d <= 0) return out;  // vertex on the plane: itself suffices
  const double max_l1 = static_cast<double>(ea + eb);
  double s = 0;
  while (s <= max_l1) {
    const double raw = (epsilon / 4.0) * std::max(d, s - d);
    const double delta = std::max(1.0, std::floor(raw));
    const double s_next = s + std::max(1.0, raw);
    const int step = static_cast<int>(delta);
    const double lo = std::max(0.0, s - 2 * delta);
    const double hi = s_next + 2 * delta;
    // Lattice points anchored at (a0, b0) within the ring.
    const int reach = static_cast<int>(hi / delta) + 1;
    for (int i = -reach; i <= reach; ++i) {
      for (int j = -reach; j <= reach; ++j) {
        const int a = a0 + i * step, b = b0 + j * step;
        if (a < 0 || b < 0 || a >= static_cast<int>(ea) ||
            b >= static_cast<int>(eb))
          continue;
        const double l1 = std::abs(a - a0) + std::abs(b - b0);
        if (l1 < lo || l1 > hi) continue;
        out.push_back({a, b});
      }
    }
    s = s_next;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

DoublingOracle::DoublingOracle(const graph::Mesh3D& mesh, double epsilon)
    : epsilon_(epsilon) {
  // !(x > 0) also rejects NaN.
  if (!(epsilon > 0) || !std::isfinite(epsilon))
    throw std::invalid_argument("epsilon must be a finite number > 0");
  const std::size_t n = mesh.graph.num_vertices();
  parts_.assign(n, {});
  const Mesh3DDecomposition decomposition(mesh);

  // Walk the box tree breadth-first carrying induced subgraphs, so parts are
  // appended to each vertex in ascending node order.
  struct Pending {
    int node;
    graph::Subgraph sub;  ///< to_parent = global mesh ids
  };
  std::vector<Pending> queue;
  {
    std::vector<Vertex> all(n);
    for (Vertex v = 0; v < n; ++v) all[v] = v;
    queue.push_back({0, graph::induced_subgraph(mesh.graph, std::move(all))});
  }

  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    // Move the payload out: the vector may reallocate as children are added.
    const int node_id = queue[qi].node;
    const graph::Subgraph sub = std::move(queue[qi].sub);
    const auto& node = decomposition.nodes()[static_cast<std::size_t>(node_id)];
    const graph::Graph& g = sub.graph;

    const PlaneInfo plane = plane_info(mesh, node, sub.from_parent);
    std::vector<Weight> dist;
    std::vector<std::uint32_t> anchor;
    project_plane(g, plane, dist, anchor);

    // Per-vertex net selection; group requests per distinct net point.
    std::map<std::pair<int, int>, std::vector<Vertex>> requests;
    std::map<std::pair<int, int>, Vertex> plane_local;
    for (std::size_t i = 0; i < plane.local_verts.size(); ++i)
      plane_local[plane.coords[i]] = plane.local_verts[i];
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (dist[v] == graph::kInfiniteWeight) continue;
      const auto [a0, b0] = plane.coords[anchor[v]];
      for (const auto& point :
           lattice_net(a0, b0, plane.extent_a, plane.extent_b, dist[v],
                       epsilon))
        requests[point].push_back(v);
    }
    for (const auto& [point, verts] : requests) {
      const Vertex source = plane_local.at(point);
      const Vertex sources[] = {source};
      const sssp::ShortestPaths sp = sssp::dijkstra_masked(g, sources, {});
      for (Vertex v : verts) {
        auto& vparts = parts_[sub.to_parent[v]];
        if (vparts.empty() || vparts.back().node != node_id)
          vparts.push_back(Part{node_id, {}});
        vparts.back().conns.push_back(
            Conn{point.first, point.second, sp.dist[v]});
      }
    }

    // Recurse into the two residual boxes.
    for (int child : node.children) {
      const MeshBox& cb =
          decomposition.nodes()[static_cast<std::size_t>(child)].box;
      std::vector<Vertex> members;
      for (std::size_t z = cb.z0; z <= cb.z1; ++z)
        for (std::size_t y = cb.y0; y <= cb.y1; ++y)
          for (std::size_t x = cb.x0; x <= cb.x1; ++x)
            members.push_back(mesh.at(x, y, z));
      queue.push_back({child, graph::induced_subgraph(mesh.graph,
                                                      std::move(members))});
    }
  }
}

Weight DoublingOracle::query(Vertex u, Vertex v) const {
  if (u == v) return 0;
  Weight best = graph::kInfiniteWeight;
  const auto& pu = parts_[u];
  const auto& pv = parts_[v];
  std::size_t iu = 0, iv = 0;
  while (iu < pu.size() && iv < pv.size()) {
    if (pu[iu].node != pv[iv].node) {
      (pu[iu].node < pv[iv].node ? iu : iv)++;
      continue;
    }
    for (const Conn& cu : pu[iu].conns)
      for (const Conn& cv : pv[iv].conns) {
        const Weight along = std::abs(cu.a - cv.a) + std::abs(cu.b - cv.b);
        best = std::min(best, cu.dist + along + cv.dist);
      }
    ++iu;
    ++iv;
  }
  return best;
}

std::size_t DoublingOracle::size_in_words() const {
  std::size_t words = 0;
  for (const auto& vparts : parts_)
    for (const auto& part : vparts) words += 1 + 2 * part.conns.size();
  return words;
}

std::size_t DoublingOracle::max_vertex_words() const {
  std::size_t best = 0;
  for (const auto& vparts : parts_) {
    std::size_t words = 0;
    for (const auto& part : vparts) words += 1 + 2 * part.conns.size();
    best = std::max(best, words);
  }
  return best;
}

double DoublingOracle::average_connections() const {
  if (parts_.empty()) return 0;
  std::size_t total = 0;
  for (const auto& vparts : parts_)
    for (const auto& part : vparts) total += part.conns.size();
  return static_cast<double>(total) / static_cast<double>(parts_.size());
}

}  // namespace pathsep::doubling
