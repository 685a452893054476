#include "routing/tables.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/audit_routing.hpp"
#include "check/check.hpp"
#include "sssp/dijkstra.hpp"

namespace pathsep::routing {

namespace {

struct Plan {
  Weight cost = graph::kInfiniteWeight;
  std::int32_t node = -1;
  std::int32_t path = -1;
  oracle::Connection from_u{}, from_v{};
};

/// Brute-force argmin over portal pairs of the common parts the oracle's
/// merge walk finds (planning happens once per packet at the source; the
/// oracle's O(|C|) sweep answers *distance* queries, but the route needs
/// the winning pair itself).
Plan best_plan(const oracle::LabelView& lu, const oracle::LabelView& lv) {
  Plan plan;
  oracle::walk_common_parts(
      lu, lv, [&](const oracle::LabelPart* pu, const oracle::LabelPart* pv) {
        const auto iu = static_cast<std::size_t>(pu - lu.parts());
        const auto iv = static_cast<std::size_t>(pv - lv.parts());
        const std::span<const oracle::HotEntry> hu = lu.hot(iu);
        const std::span<const oracle::HotEntry> hv = lv.hot(iv);
        for (std::size_t a = 0; a < hu.size(); ++a)
          for (std::size_t b = 0; b < hv.size(); ++b) {
            const Weight cost =
                hu[a].dist + std::abs(hu[a].prefix - hv[b].prefix) +
                hv[b].dist;
            if (cost < plan.cost)
              plan = Plan{cost, pu->node, pu->path(), lu.connection(iu, a),
                          lv.connection(iv, b)};
          }
      });
  return plan;
}

/// Mask of vertices removed before `stage` at this node.
std::vector<bool> stage_mask(const hierarchy::DecompositionNode& node,
                             std::size_t stage) {
  std::vector<bool> removed(node.graph.num_vertices(), false);
  for (const auto& p : node.paths)
    if (p.stage < stage)
      for (Vertex v : p.verts) removed[v] = true;
  return removed;
}

/// Shortest path from `v` to `portal` in the residual graph, local ids,
/// starting at v. Reproduces the hops the per-connection next-hop tables
/// encode.
std::vector<Vertex> leg_to_portal(const hierarchy::DecompositionNode& node,
                                  std::size_t stage, Vertex portal, Vertex v) {
  const Vertex sources[] = {portal};
  const sssp::ShortestPaths sp =
      sssp::dijkstra_masked(node.graph, sources, stage_mask(node, stage));
  if (!sp.reached(v)) throw std::logic_error("route leg unreachable");
  std::vector<Vertex> leg;  // v, ..., portal (walk parents toward the root)
  for (Vertex cur = v; cur != graph::kInvalidVertex; cur = sp.parent[cur])
    leg.push_back(cur);
  return leg;
}

}  // namespace

RoutingScheme::RoutingScheme(const hierarchy::DecompositionTree& tree,
                             double epsilon)
    : tree_(&tree), oracle_(tree, epsilon) {
  PATHSEP_AUDIT(check::audit_routing_tables(tree, oracle_.arena()));
}

RouteResult RoutingScheme::route(Vertex source, Vertex target) const {
  RouteResult result;
  if (source == target) {
    result.delivered = true;
    result.cost = 0;
    result.route = {source};
    return result;
  }
  const Plan plan = best_plan(oracle_.label(source), oracle_.label(target));
  if (plan.node < 0) return result;  // no common part: disconnected

  const hierarchy::DecompositionNode& node = tree_->node(plan.node);
  const hierarchy::NodePath& path =
      node.paths[static_cast<std::size_t>(plan.path)];

  // Local ids of the endpoints at the planning node.
  auto local_at = [&](Vertex root_vertex) {
    for (const auto& [nid, local] : tree_->chain(root_vertex))
      if (nid == plan.node) return local;
    throw std::logic_error("endpoint missing from planning node");
  };
  const Vertex lu = local_at(source);
  const Vertex lv = local_at(target);

  // Leg 1: source -> portal p (shortest path in J).
  std::vector<Vertex> route =
      leg_to_portal(node, path.stage, path.verts[plan.from_u.path_index], lu);
  // Leg 2: along the separator path from p to q.
  {
    std::uint32_t i = plan.from_u.path_index;
    const std::uint32_t j = plan.from_v.path_index;
    while (i != j) {
      i = i < j ? i + 1 : i - 1;
      route.push_back(path.verts[i]);
    }
  }
  // Leg 3: portal q -> target (reverse of target -> q).
  {
    std::vector<Vertex> leg = leg_to_portal(
        node, path.stage, path.verts[plan.from_v.path_index], lv);
    route.insert(route.end(), leg.rbegin(), leg.rend());
  }

  // Collapse immediate repeats at the three junctions.
  std::vector<Vertex> clean;
  for (Vertex v : route)
    if (clean.empty() || clean.back() != v) clean.push_back(v);

  result.delivered = true;
  result.cost = plan.cost;
  result.hops = clean.size() - 1;
  result.route.reserve(clean.size());
  for (Vertex v : clean) result.route.push_back(node.root_ids[v]);
  return result;
}

std::size_t RoutingScheme::table_words() const {
  std::size_t words = oracle_.size_in_words();
  for (const auto& node : tree_->nodes())
    for (const auto& path : node.paths) words += 2 * path.verts.size();
  return words;
}

std::size_t RoutingScheme::max_table_words() const {
  // Per-vertex: its label plus at most 2 along-path links per level it can
  // sit on a separator path of (a vertex is on separator paths of exactly
  // one node, possibly several paths there).
  std::size_t best = 0;
  std::vector<std::size_t> extra(oracle_.num_vertices(), 0);
  for (const auto& node : tree_->nodes())
    for (const auto& path : node.paths)
      for (Vertex v : path.verts) extra[node.root_ids[v]] += 2;
  for (Vertex v = 0; v < oracle_.num_vertices(); ++v)
    best = std::max(best, oracle_.label(v).size_in_words() + extra[v]);
  return best;
}

}  // namespace pathsep::routing
