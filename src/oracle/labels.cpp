#include "oracle/labels.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "check/audit_oracle.hpp"
#include "check/check.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace pathsep::oracle {

std::size_t DistanceLabel::size_in_words() const {
  std::size_t words = 0;
  for (const LabelPart& part : parts) words += 2 + 3 * part.connections.size();
  return words;
}

std::size_t DistanceLabel::connection_count() const {
  std::size_t c = 0;
  for (const LabelPart& part : parts) c += part.connections.size();
  return c;
}

namespace {

/// min over p in a, q in b of a.dist + |a.prefix - b.prefix| + b.dist,
/// in O(|a| + |b|) using the prefix-sorted order.
Weight sweep_pair(const std::vector<Connection>& a,
                  const std::vector<Connection>& b) {
  Weight best = graph::kInfiniteWeight;
  // Forward: q to the right of p. best_left = min over already-passed p of
  // (dist_p - prefix_p); candidate = best_left + prefix_q + dist_q.
  for (int dir = 0; dir < 2; ++dir) {
    const auto& from = dir == 0 ? a : b;
    const auto& to = dir == 0 ? b : a;
    Weight best_left = graph::kInfiniteWeight;
    std::size_t i = 0;
    for (const Connection& q : to) {
      while (i < from.size() && from[i].prefix <= q.prefix) {
        best_left = std::min(best_left, from[i].dist - from[i].prefix);
        ++i;
      }
      if (best_left != graph::kInfiniteWeight)
        best = std::min(best, best_left + q.prefix + q.dist);
    }
  }
  return best;
}

/// The one merge walk of Theorem 2: steps through both labels' (node, path)
/// parts in lockstep and sweeps every common pair. `sink(pu, pv, pair, best)`
/// sees each matched pair's sweep minimum before it is folded into `best`,
/// so each caller's cost accounting is a template argument, not a branch.
template <typename Sink>
Weight merge_walk(const DistanceLabel& u, const DistanceLabel& v, Sink&& sink) {
  if (u.vertex == v.vertex) return 0;
  Weight best = graph::kInfiniteWeight;
  std::size_t iu = 0, iv = 0;
  while (iu < u.parts.size() && iv < v.parts.size()) {
    const LabelPart& pu = u.parts[iu];
    const LabelPart& pv = v.parts[iv];
    if (pu.node != pv.node) {
      (pu.node < pv.node ? iu : iv)++;
      continue;
    }
    if (pu.path != pv.path) {
      (pu.path < pv.path ? iu : iv)++;
      continue;
    }
    const Weight pair = sweep_pair(pu.connections, pv.connections);
    sink(pu, pv, pair, best);
    best = std::min(best, pair);
    ++iu;
    ++iv;
  }
  return best;
}

}  // namespace

Weight query_labels(const DistanceLabel& u, const DistanceLabel& v,
                    std::size_t* visited) {
  return merge_walk(u, v, [visited](const LabelPart& pu, const LabelPart& pv,
                                    Weight, Weight) {
    if (visited) *visited += pu.connections.size() + pv.connections.size();
  });
}

Weight query_labels(const DistanceLabel& u, const DistanceLabel& v,
                    QueryCost& cost) {
  return merge_walk(u, v, [&cost](const LabelPart& pu, const LabelPart& pv,
                                  Weight pair, Weight best) {
    cost.entries_scanned += static_cast<std::uint32_t>(
        pu.connections.size() + pv.connections.size());
    if (pair < best) {
      cost.win_node = pu.node;
      cost.win_path = pu.path;
    }
  });
}

std::vector<DistanceLabel> build_labels(
    const hierarchy::DecompositionTree& tree, double epsilon,
    std::size_t threads, BuildLabelsStats* stats) {
  PATHSEP_SPAN("oracle.build_labels");
  const std::size_t n = tree.root_graph().num_vertices();
  std::vector<DistanceLabel> labels(n);
  for (Vertex v = 0; v < n; ++v) labels[v].vertex = v;

  // Per-node connection computation is independent. Scheduling is
  // size-aware: nodes are issued largest first with grain 1, so the root —
  // which holds half of all the work — starts immediately and its inner
  // portal fan-out (compute_connections runs its stages' Dijkstras on the
  // same pool) is helped by whichever workers finish the small nodes, via
  // parallel_for's cooperative nesting. Issue order does not affect results:
  // every connection lands in a pre-sized slot keyed by (node, path, vertex).
  std::vector<std::size_t> order(tree.nodes().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto cost = [&](std::size_t id) {
      const hierarchy::DecompositionNode& node =
          tree.node(static_cast<int>(id));
      return node.graph.num_vertices() + node.graph.num_edges();
    };
    const std::size_t ca = cost(a), cb = cost(b);
    return ca > cb || (ca == cb && a < b);
  });

  util::Timer phase_timer;
  std::vector<NodeConnections> per_node(tree.nodes().size());
  PATHSEP_OBS_ONLY(const std::uint64_t build_span = obs::current_span();)
  util::parallel_for(
      order.size(),
      [&](std::size_t oi) {
        PATHSEP_OBS_ONLY(obs::SpanParentGuard trace_parent(build_span);)
        const std::size_t node_id = order[oi];
        per_node[node_id] = compute_connections(
            tree.node(static_cast<int>(node_id)), epsilon, threads);
      },
      threads, /*grain=*/1);
  if (stats) stats->connections_seconds = phase_timer.elapsed_seconds();

  // Assembly is parallel over vertices: v's parts are exactly the non-empty
  // connection lists along its chain, visited root-to-leaf — node ids
  // increase down the chain (BFS numbering) and paths are scanned in index
  // order, so parts come out sorted by (node, path) with no sort step. Each
  // (node, path, local) list has a single consumer, so it is moved, not
  // copied.
  phase_timer.reset();
  PATHSEP_STAGE_TIMER("oracle_assemble_labels_ns");
  util::parallel_for(
      n,
      [&](std::size_t vi) {
        const Vertex v = static_cast<Vertex>(vi);
        DistanceLabel& label = labels[v];
        for (const auto& [node_id, local] : tree.chain(v)) {
          const hierarchy::DecompositionNode& node = tree.node(node_id);
          NodeConnections& nc = per_node[static_cast<std::size_t>(node_id)];
          for (std::size_t pi = 0; pi < node.paths.size(); ++pi) {
            auto& conns = nc.connections[pi][local];
            if (conns.empty()) continue;
            LabelPart part;
            part.node = node_id;
            part.path = static_cast<std::int32_t>(pi);
            part.connections = std::move(conns);
            label.parts.push_back(std::move(part));
          }
        }
      },
      threads);
  if (stats) stats->assemble_seconds = phase_timer.elapsed_seconds();
  PATHSEP_AUDIT(check::audit_labels(labels));
  return labels;
}

}  // namespace pathsep::oracle
