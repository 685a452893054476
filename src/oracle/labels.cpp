#include "oracle/labels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "check/audit_oracle.hpp"
#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace pathsep::oracle {

LabelPart LabelPart::make(std::int32_t node, std::int64_t path,
                          std::int64_t depth, std::uint64_t begin) {
  if (path < 0 || path > kMaxPath || depth < 0 || depth > kMaxDepth)
    throw std::overflow_error(
        "label part (path " + std::to_string(path) + ", depth " +
        std::to_string(depth) + ") does not fit the part header's " +
        std::to_string(kMaxPath) + " paths and " + std::to_string(kMaxDepth) +
        " levels");
  return LabelPart{node,
                   static_cast<std::uint32_t>(path) |
                       static_cast<std::uint32_t>(depth) << 16,
                   begin};
}

void LabelArena::add_part(std::int32_t node, std::int64_t path,
                          std::int64_t depth,
                          std::span<const Connection> connections) {
  // The sentinel becomes the new part; a fresh sentinel closes it.
  parts.back() = LabelPart::make(node, path, depth, parts.back().begin);
  for (const Connection& conn : connections) {
    hot.push_back(HotEntry{conn.prefix, conn.dist});
    cold.push_back(ColdEntry{conn.path_index, conn.next_hop});
  }
  parts.push_back(LabelPart{0, 0, hot.size()});
  if (node >= 0)
    num_nodes = std::max(num_nodes, static_cast<std::uint64_t>(node) + 1);
}

std::size_t LabelArena::bytes() const {
  return part_offsets.size() * sizeof(std::uint64_t) +
         parts.size() * sizeof(LabelPart) + hot.size() * sizeof(HotEntry) +
         cold.size() * sizeof(ColdEntry);
}

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("malformed label arena: " + what);
}

}  // namespace

void validate_arena(const LabelArena& arena) {
  if (arena.part_offsets.empty() || arena.parts.empty())
    reject("missing offsets or sentinel");
  const std::size_t n = arena.part_offsets.size() - 1;
  const std::size_t num_parts = arena.parts.size() - 1;
  const std::size_t num_conns = arena.hot.size();
  if (arena.cold.size() != num_conns)
    reject("hot and cold streams differ in length");
  if (arena.num_nodes > n)
    reject("node count " + std::to_string(arena.num_nodes) +
           " exceeds the vertex count " + std::to_string(n));
  if (arena.part_offsets.front() != 0 || arena.part_offsets.back() != num_parts)
    reject("part offsets do not span the part array");
  const LabelPart& sentinel = arena.parts.back();
  if (sentinel.node != 0 || sentinel.path_depth != 0 ||
      sentinel.begin != num_conns)
    reject("sentinel part is not {0, 0, connection count}");
  if (arena.parts.front().begin != 0)
    reject("first part does not start at connection 0");
  // Depth of every node seen so far (-1: none yet); num_nodes <= n bounds
  // the table by the part_offsets array already held.
  std::vector<std::int32_t> node_depth(
      static_cast<std::size_t>(arena.num_nodes), -1);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t first = arena.part_offsets[v];
    const std::uint64_t last = arena.part_offsets[v + 1];
    if (last < first || last > num_parts)
      reject("part offsets not monotone at vertex " + std::to_string(v));
    for (std::uint64_t p = first; p < last; ++p) {
      const LabelPart& part = arena.parts[p];
      const auto where = [&] {
        return "vertex " + std::to_string(v) + " part " + std::to_string(p);
      };
      // A chain of depth d holds d + 1 distinct nodes, so d < num_nodes.
      if (part.node < 0 ||
          static_cast<std::uint64_t>(part.node) >= arena.num_nodes ||
          part.path_depth >> 31 != 0 ||
          static_cast<std::uint64_t>(part.depth()) >= arena.num_nodes)
        reject(where() + " has ids (node=" + std::to_string(part.node) +
               ", path|depth<<16=" + std::to_string(part.path_depth) +
               ") out of range");
      std::int32_t& depth = node_depth[static_cast<std::size_t>(part.node)];
      if (depth >= 0 && depth != part.depth())
        reject(where() + " puts node " + std::to_string(part.node) +
               " at depth " + std::to_string(part.depth()) +
               ", another part at " + std::to_string(depth));
      depth = part.depth();
      if (p > first) {
        const LabelPart& prev = arena.parts[p - 1];
        if (!(prev.node < part.node ||
              (prev.node == part.node && prev.path() < part.path())))
          reject(where() + " not strictly sorted by (node, path)");
        if (prev.node != part.node && prev.depth() >= part.depth())
          reject(where() + " does not descend the chain (depth " +
                 std::to_string(prev.depth()) + " then " +
                 std::to_string(part.depth()) + ")");
      }
    }
  }
  for (std::size_t p = 0; p < num_parts; ++p) {
    const std::uint64_t begin = arena.parts[p].begin;
    const std::uint64_t end = arena.parts[p + 1].begin;
    if (end <= begin || end > num_conns)
      reject("part " + std::to_string(p) +
             " has an empty or out-of-range connection list");
    for (std::uint64_t c = begin; c < end; ++c) {
      const HotEntry& h = arena.hot[c];
      // !(x >= 0) also rejects NaN.
      if (!(h.prefix >= 0) || !(h.dist >= 0) || !std::isfinite(h.prefix) ||
          !std::isfinite(h.dist))
        reject("connection " + std::to_string(c) +
               " has a negative or non-finite prefix or distance");
      if (c > begin && arena.hot[c - 1].prefix > h.prefix)
        reject("part " + std::to_string(p) +
               " connections not sorted by prefix");
    }
  }
}

namespace {

/// min over p in a, q in b of d(p) + |prefix(p) - prefix(q)| + d(q), in one
/// ascending merge of the two prefix-sorted lists. ma and mb are the running
/// minima of dist - prefix on each side; an entry x met in the merge closes
/// every pair with an earlier entry of the other side at
/// m_other + x.prefix + x.dist. Entries at a shared prefix all update their
/// side's minimum before any of them is a candidate, so an equal-prefix pair
/// is read both ways round, exactly as the swapped call reads it:
/// sweep_pair(a, b) and sweep_pair(b, a) are bit-identical.
Weight sweep_pair(std::span<const HotEntry> a, std::span<const HotEntry> b) {
  constexpr Weight kInf = graph::kInfiniteWeight;
  Weight best = kInf, ma = kInf, mb = kInf;
  const HotEntry* x = a.data();
  const HotEntry* const x_end = x + a.size();
  const HotEntry* y = b.data();
  const HotEntry* const y_end = y + b.size();
  while (x != x_end && y != y_end) {
    if (x->prefix < y->prefix) {
      ma = std::min(ma, x->dist - x->prefix);
      best = std::min(best, mb + x->prefix + x->dist);
      ++x;
    } else if (y->prefix < x->prefix) {
      mb = std::min(mb, y->dist - y->prefix);
      best = std::min(best, ma + y->prefix + y->dist);
      ++y;
    } else {
      const Weight prefix = x->prefix;
      const HotEntry* x_run = x;
      const HotEntry* y_run = y;
      for (; x_run != x_end && x_run->prefix == prefix; ++x_run)
        ma = std::min(ma, x_run->dist - prefix);
      for (; y_run != y_end && y_run->prefix == prefix; ++y_run)
        mb = std::min(mb, y_run->dist - prefix);
      for (; x != x_run; ++x) best = std::min(best, mb + prefix + x->dist);
      for (; y != y_run; ++y) best = std::min(best, ma + prefix + y->dist);
    }
  }
  for (; x != x_end; ++x) best = std::min(best, mb + x->prefix + x->dist);
  for (; y != y_end; ++y) best = std::min(best, ma + y->prefix + y->dist);
  return best;
}

/// Theorem 2's estimate: the minimum of sweep_pair over the common parts
/// walk_common_parts finds. `sink.pair(part, scanned, pair, best)` sees each
/// matched pair's sweep minimum before it is folded into `best`, and
/// `sink.done(steps)` the number of part-header pairs compared, so each
/// caller's accounting is a template argument, not a branch.
template <typename Sink>
Weight merge_walk(const LabelView& u, const LabelView& v, Sink&& sink) {
  if (u.vertex() == v.vertex()) return 0;
  Weight best = graph::kInfiniteWeight;
  const HotEntry* const hot_u = u.hot_data();
  const HotEntry* const hot_v = v.hot_data();
  const std::uint32_t steps = walk_common_parts(
      u, v, [&](const LabelPart* pu, const LabelPart* pv) {
        const std::span<const HotEntry> a(hot_u + pu->begin,
                                          pu[1].begin - pu->begin);
        const std::span<const HotEntry> b(hot_v + pv->begin,
                                          pv[1].begin - pv->begin);
        const Weight pair = sweep_pair(a, b);
        sink.pair(*pu, a.size() + b.size(), pair, best);
        best = std::min(best, pair);
      });
  sink.done(steps);
  return best;
}

struct NoSink {
  void pair(const LabelPart&, std::size_t, Weight, Weight) {}
  void done(std::uint32_t) {}
};

struct StatsSink {
  QueryStats& stats;
  void pair(const LabelPart& part, std::size_t scanned, Weight pair,
            Weight best) {
    stats.entries_scanned += static_cast<std::uint32_t>(scanned);
    // Selects, not a branch: which common part wins is data, and a
    // mispredicted branch costs more than three conditional moves.
    const bool wins = pair < best;
    stats.win_node = wins ? part.node : stats.win_node;
    stats.win_path = wins ? part.path() : stats.win_path;
    stats.win_level = wins ? part.depth() : stats.win_level;
  }
  void done(std::uint32_t steps) { stats.walk_steps = steps; }
};

}  // namespace

Weight query_labels(const LabelView& u, const LabelView& v) {
  return merge_walk(u, v, NoSink{});
}

Weight query_labels(const LabelView& u, const LabelView& v,
                    QueryStats& stats) {
  return merge_walk(u, v, StatsSink{stats});
}

std::size_t drop_dominated(std::span<Connection> list) {
  // Left to right: an earlier entry p' dominates p when
  // d(p') + prefix(p) - prefix(p') <= d(p), i.e. when its dist - prefix is
  // no larger. The key only falls along the kept entries, so the last kept
  // key is the running minimum. Of two equal entries the first stays.
  Weight low = graph::kInfiniteWeight;
  std::size_t kept = 0;
  for (const Connection& conn : list) {
    const Weight key = conn.dist - conn.prefix;
    if (low <= key) continue;
    low = key;
    list[kept++] = conn;
  }
  // Right to left over the survivors: a later entry dominates when its
  // dist + prefix is no larger. No two survivors are equal any more, so
  // this pass cannot drop both of a pair that dominate each other.
  low = graph::kInfiniteWeight;
  std::size_t first = kept;
  for (std::size_t i = kept; i-- > 0;) {
    const Weight key = list[i].dist + list[i].prefix;
    if (low <= key) continue;
    low = key;
    list[--first] = list[i];
  }
  for (std::size_t i = first; i < kept; ++i) list[i - first] = list[i];
  return kept - first;
}

namespace {

/// Drops the dominated connections of every (path, vertex) list of a node,
/// compacting each path's flat array in place; returns how many remain.
std::size_t drop_dominated(NodeConnections& nc) {
  std::size_t total = 0;
  for (NodeConnections::PathLists& lists : nc.paths) {
    std::size_t out = 0;
    std::size_t begin = 0;
    for (std::size_t v = 0; v + 1 < lists.offsets.size(); ++v) {
      const std::size_t end = lists.offsets[v + 1];
      const std::span<Connection> list(lists.entries.data() + begin,
                                       end - begin);
      const std::size_t kept = drop_dominated(list);
      for (std::size_t i = 0; i < kept; ++i) lists.entries[out + i] = list[i];
      out += kept;
      lists.offsets[v + 1] = out;
      begin = end;
    }
    lists.entries.resize(out);
    lists.entries.shrink_to_fit();
    total += out;
  }
  return total;
}

}  // namespace

LabelArena build_labels(const hierarchy::DecompositionTree& tree,
                        double epsilon, BuildLabelsStats* stats) {
  PATHSEP_SPAN("oracle.build_labels");
  check_epsilon(epsilon);
  const std::size_t n = tree.root_graph().num_vertices();

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
  const std::uint64_t build_span = obs::current_span();
  util::parallel_for(
      order.size(),
      [&](std::size_t oi) {
        obs::SpanParentGuard trace_parent(build_span);
        const std::size_t node_id = order[oi];
        NodeConnections& nc = per_node[node_id];
        nc = compute_connections(tree.node(static_cast<int>(node_id)), epsilon);
        std::size_t generated = 0;
        for (const NodeConnections::PathLists& lists : nc.paths)
          generated += lists.entries.size();
        const std::size_t kept = drop_dominated(nc);
        static obs::Counter& generated_total = obs::default_registry().counter(
            "oracle_connections_generated_total");
        static obs::Counter& kept_total =
            obs::default_registry().counter("oracle_connections_kept_total");
        generated_total.inc(generated);
        kept_total.inc(kept);
      },
      /*grain=*/1);
  if (stats) stats->connections_seconds = phase_timer.elapsed_seconds();

  // Assembly into the arena, parallel over vertices in two passes. v's
  // parts are exactly the non-empty connection lists along its chain,
  // visited root-to-leaf — node ids increase down the chain (BFS numbering)
  // and paths are scanned in index order, so parts come out sorted by
  // (node, path) with no sort step. The count pass sizes every vertex's
  // slice, prefix sums place it, and the fill pass writes each slice from
  // one worker, so the arena is identical for every thread budget.
  phase_timer.reset();
  PATHSEP_STAGE_TIMER("oracle_assemble_labels_ns");
  const auto for_each_list = [&](Vertex v, auto&& fn) {
    for (const auto& [node_id, local] : tree.chain(v)) {
      const NodeConnections& nc = per_node[static_cast<std::size_t>(node_id)];
      for (std::size_t pi = 0; pi < nc.paths.size(); ++pi) {
        const std::span<const Connection> list = nc.list(pi, local);
        if (!list.empty()) fn(node_id, pi, list);
      }
    }
  };
  LabelArena arena;
  arena.num_nodes = tree.nodes().size();
  arena.part_offsets.assign(n + 1, 0);
  std::vector<std::uint64_t> conn_offsets(n + 1, 0);
  util::parallel_for(
      n,
      [&](std::size_t v) {
        for_each_list(static_cast<Vertex>(v),
                      [&](int, std::size_t, std::span<const Connection> l) {
                        ++arena.part_offsets[v + 1];
                        conn_offsets[v + 1] += l.size();
                      });
      });
  for (std::size_t v = 0; v < n; ++v) {
    arena.part_offsets[v + 1] += arena.part_offsets[v];
    conn_offsets[v + 1] += conn_offsets[v];
  }
  arena.parts.resize(arena.part_offsets[n] + 1);
  arena.parts.back() = LabelPart{0, 0, conn_offsets[n]};
  arena.hot.resize(conn_offsets[n]);
  arena.cold.resize(conn_offsets[n]);
  util::parallel_for(
      n,
      [&](std::size_t v) {
        std::uint64_t p = arena.part_offsets[v];
        std::uint64_t c = conn_offsets[v];
        for_each_list(
            static_cast<Vertex>(v),
            [&](int node_id, std::size_t pi, std::span<const Connection> l) {
              arena.parts[p++] = LabelPart::make(
                  node_id, static_cast<std::int64_t>(pi),
                  tree.node(node_id).depth, c);
              for (const Connection& conn : l) {
                arena.hot[c] = HotEntry{conn.prefix, conn.dist};
                arena.cold[c] = ColdEntry{conn.path_index, conn.next_hop};
                ++c;
              }
            });
      });
  if (stats) stats->assemble_seconds = phase_timer.elapsed_seconds();
  PATHSEP_AUDIT(check::audit_built_labels(arena, tree));
  return arena;
}

}  // namespace pathsep::oracle
