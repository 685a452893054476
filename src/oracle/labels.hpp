// (1+ε)-approximate distance labels (Theorem 2).
//
// The label of vertex v packs, for every decomposition node H on v's chain
// and every separator path Q of H reachable from v in its stage's residual
// graph J, the ε-portal connections (portal prefix position, exact
// d_J(v, portal)). Two labels alone answer a (1+ε)-approximate distance
// query: the true shortest path is cut by some common path Q at a vertex x,
// and each endpoint owns a portal within (ε/2)·d_J(·, x) of x along Q, so
//   min over common paths, portals p of u, q of v of
//       d_J(u,p) + |prefix(p) - prefix(q)| + d_J(q,v)
// is sandwiched between d(u,v) and (1+ε)·d(u,v). The inner minimum is
// evaluated in O(|C_u| + |C_v|) by one ascending merge of the two
// prefix-sorted lists: it carries the running minimum of dist − prefix on
// each side, and each entry x closes its pairs with the other side's earlier
// entries at that minimum + x.prefix + x.dist. Entries at a shared prefix
// update both minima before either side's candidates are read, so a query
// answers bit-identically both ways round.
//
// Built labels are dominance-free: a connection (v, p) is dropped when
// another portal p′ of the same part has d(v,p′) + |prefix(p) − prefix(p′)|
// <= d(v,p), because by the triangle inequality along the path p′ is then
// no worse than p for every partner portal (DESIGN.md §3). Of two equal
// connections (two portals at one prefix, through a zero-weight path edge)
// exactly one survives. The sweep does not rely on it: labels
// with dominated connections (older snapshots) answer the same.
//
// Common paths sit only at common ancestors in the decomposition tree, and
// those are a prefix of both labels' chains. Every part header carries its
// node's depth, so the merge walk stops where the chains diverge: when the
// two parts under its cursors sit at the same depth on different nodes,
// every later part of either label lies below one of those two nodes, and
// no later part can be common. On a 160² grid the walk takes about 3 steps
// instead of the 16 a walk to the end of one label takes (DESIGN.md §3).
//
// Representation: every label of an oracle lives in one LabelArena — a
// handful of contiguous arrays in CSR form (vertex → parts → connections),
// with the (prefix, dist) pairs the sweep reads in a hot stream apart from
// the (path_index, next_hop) routing fields it never touches. The build
// fills it, queries walk it through LabelView, and the snapshot file
// (service/snapshot.hpp) is the same arrays byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "oracle/portals.hpp"

namespace pathsep::oracle {

/// One (node, path) part of a label. Its connections are the arena entries
/// [begin, begin of the next part); every part has at least one. The second
/// word packs the path index (low 16 bits) and the node's depth in the
/// decomposition tree (the next 15 bits; P3 bounds it by log2 n + 1); the
/// top bit is always clear.
struct LabelPart {
  static constexpr std::uint32_t kMaxPath = 0xffff;
  static constexpr std::uint32_t kMaxDepth = 0x7fff;

  std::int32_t node = 0;       ///< decomposition node id
  std::uint32_t path_depth = 0;  ///< path | depth << 16 (see make)
  std::uint64_t begin = 0;     ///< first connection in the hot/cold streams

  /// Packs a part; throws std::overflow_error rather than truncate a path
  /// or depth that does not fit its bits.
  static LabelPart make(std::int32_t node, std::int64_t path,
                        std::int64_t depth, std::uint64_t begin);

  std::int32_t path() const {
    return static_cast<std::int32_t>(path_depth & kMaxPath);
  }
  std::int32_t depth() const {
    return static_cast<std::int32_t>(path_depth >> 16);
  }
};

/// The two connection fields the query sweep reads.
struct HotEntry {
  Weight prefix = 0;  ///< portal's prefix position on the path
  Weight dist = 0;    ///< exact d_J(v, portal)
};

/// The connection fields only routing and the distributed codec read.
struct ColdEntry {
  std::uint32_t path_index = 0;  ///< portal's index into NodePath::verts
  Vertex next_hop = graph::kInvalidVertex;  ///< see Connection::next_hop
};

/// Read-only view of one label: its parts, sorted by (node, path), and each
/// part's prefix-sorted connections. Views point into a LabelArena (or a
/// DistanceLabel) and must not outlive it. A default view is the empty
/// label of no vertex.
class LabelView {
 public:
  LabelView() = default;
  /// `parts` holds num_parts parts followed by at least one more entry (the
  /// next label's first part or the arena sentinel), whose begin ends the
  /// last part's connections.
  LabelView(Vertex vertex, const LabelPart* parts, std::size_t num_parts,
            const HotEntry* hot, const ColdEntry* cold)
      : vertex_(vertex), parts_(parts), num_parts_(num_parts), hot_(hot),
        cold_(cold) {}

  Vertex vertex() const { return vertex_; }
  std::size_t num_parts() const { return num_parts_; }
  const LabelPart& part(std::size_t i) const { return parts_[i]; }
  /// The raw arrays the merge walk steps over: parts()[num_parts()] is the
  /// entry that ends the last part, and part p's hot entries are
  /// hot_data()[parts()[p].begin .. parts()[p + 1].begin).
  const LabelPart* parts() const { return parts_; }
  const HotEntry* hot_data() const { return hot_; }

  std::span<const HotEntry> hot(std::size_t i) const {
    return {hot_ + parts_[i].begin, parts_[i + 1].begin - parts_[i].begin};
  }
  std::span<const ColdEntry> cold(std::size_t i) const {
    return {cold_ + parts_[i].begin, parts_[i + 1].begin - parts_[i].begin};
  }
  /// Connection c of part i, reassembled from both streams.
  Connection connection(std::size_t i, std::size_t c) const {
    const HotEntry& h = hot(i)[c];
    const ColdEntry& k = cold(i)[c];
    return Connection{k.path_index, k.next_hop, h.dist, h.prefix};
  }

  std::size_t connection_count() const {
    return num_parts_ == 0 ? 0 : parts_[num_parts_].begin - parts_[0].begin;
  }

  /// Space in 8-byte words: 2 per part header + 3 per connection (packed
  /// path_index+next_hop, dist, prefix), matching the paper's space unit.
  std::size_t size_in_words() const {
    return 2 * num_parts_ + 3 * connection_count();
  }

 private:
  Vertex vertex_ = graph::kInvalidVertex;
  const LabelPart* parts_ = nullptr;
  std::size_t num_parts_ = 0;
  const HotEntry* hot_ = nullptr;
  const ColdEntry* cold_ = nullptr;
};

/// All labels of an oracle in CSR form. Vertex v's parts are
/// parts[part_offsets[v] .. part_offsets[v+1]); `parts` ends with one
/// sentinel {0, 0, num_connections()} (node 0, path 0, depth 0) so every
/// part's connections end at the
/// next entry's begin. hot[i] and cold[i] are the two halves of connection
/// i. Every array element is a whole number of 8-byte words with no padding
/// bytes, so the arrays' bytes are fully determined by their values.
struct LabelArena {
  std::uint64_t num_nodes = 0;  ///< part node ids lie in [0, num_nodes)
  std::vector<std::uint64_t> part_offsets{0};
  std::vector<LabelPart> parts{LabelPart{}};
  std::vector<HotEntry> hot;
  std::vector<ColdEntry> cold;

  std::size_t num_vertices() const { return part_offsets.size() - 1; }
  std::size_t num_parts() const { return parts.size() - 1; }
  std::size_t num_connections() const { return hot.size(); }

  LabelView label(Vertex v) const {
    const std::size_t first = part_offsets[v];
    return LabelView(v, parts.data() + first, part_offsets[v + 1] - first,
                     hot.data(), cold.data());
  }

  /// Prefetch hints for a query loop, a pipeline of three stages that
  /// change nothing: prefetch_offsets starts loading part_offsets[v];
  /// prefetch_parts reads it and starts loading the 64-byte line of v's
  /// first part headers (the walk stops where two chains diverge, about 3
  /// steps on a grid, so the first four 16-byte parts are what it reads);
  /// prefetch_hot reads the first header and starts loading the line of v's
  /// first hot entries, where the common parts' connections begin. Issue
  /// each stage a query after the one before. Always inlined: GCC deems a
  /// call whose body is only prefetches free of side effects and deletes
  /// it; a prefetch past the arena never faults.
  [[gnu::always_inline]] void prefetch_offsets(Vertex v) const {
    __builtin_prefetch(part_offsets.data() + v);
  }
  [[gnu::always_inline]] void prefetch_parts(Vertex v) const {
    __builtin_prefetch(parts.data() + part_offsets[v]);
  }
  [[gnu::always_inline]] void prefetch_hot(Vertex v) const {
    __builtin_prefetch(hot.data() + parts[part_offsets[v]].begin);
  }

  /// Appends a part after the last one, leaving part_offsets alone: how a
  /// DistanceLabel is assembled. build_labels fills the arrays in parallel
  /// instead.
  /// Throws std::overflow_error as LabelPart::make does.
  void add_part(std::int32_t node, std::int64_t path, std::int64_t depth,
                std::span<const Connection> connections);

  /// Heap bytes of the arrays (the in-memory size of the oracle's labels).
  std::size_t bytes() const;
};

/// Structural validation of an arena from outside the process: offsets
/// start at 0, are monotone and end at the array sizes; every part has a
/// node id in [0, num_nodes), a path-and-depth word with its top bit clear
/// and a depth below num_nodes, a non-empty connection list, and sorts
/// strictly after its predecessor in the same label; within a label the
/// depth rises exactly when the node changes, and all parts of one node
/// carry one depth across the arena; connection prefixes and distances are
/// finite and >= 0 and prefixes ascend within a part; the sentinel is
/// {0, 0, num_connections()}; and num_nodes <= num_vertices (every
/// decomposition node removes at least one vertex). Throws
/// std::runtime_error naming the first violation. After it passes, every
/// LabelView of the arena stays in bounds. Depths it cannot check against
/// a tree (a lying file) can make the walk stop early and an answer wrong,
/// never read out of bounds.
void validate_arena(const LabelArena& arena);

/// One label detached from any oracle: what the distributed codec
/// (serialize.hpp) decodes. Same layout as an arena holding one label.
struct DistanceLabel {
  Vertex vertex = graph::kInvalidVertex;  ///< root-graph id
  LabelArena arena;                       ///< parts only; no part_offsets

  void add_part(std::int32_t node, std::int64_t path, std::int64_t depth,
                std::span<const Connection> connections) {
    arena.add_part(node, path, depth, connections);
  }
  LabelView view() const {
    return LabelView(vertex, arena.parts.data(), arena.num_parts(),
                     arena.hot.data(), arena.cold.data());
  }
};

/// The one merge walk over two labels: steps through both labels' parts in
/// lockstep and calls `common(pu, pv)` on every (node, path) part the two
/// share, in (node, path) order, stopping where the chains diverge. Returns
/// the number of part-header pairs it compared. Parts are sorted by
/// (node, path), the depth rises with the node along a label, and common
/// nodes are a prefix of both chains. So when the cursors sit on different
/// nodes, the shallower part cannot be common (every later part of the
/// other label is deeper), and at equal depths the chains have left each
/// other's subtree, so no later part can be common. On one node the packed
/// path-and-depth words order the parts as their paths do. query_labels
/// sweeps each common pair; routing::RoutingScheme takes its argmin.
template <typename Common>
std::uint32_t walk_common_parts(const LabelView& u, const LabelView& v,
                                Common&& common) {
  const LabelPart* pu = u.parts();
  const LabelPart* const u_end = pu + u.num_parts();
  const LabelPart* pv = v.parts();
  const LabelPart* const v_end = pv + v.num_parts();
  std::uint32_t steps = 0;
  while (pu != u_end && pv != v_end) {
    ++steps;
    if (pu->node != pv->node) {
      const std::int32_t du = pu->depth();
      const std::int32_t dv = pv->depth();
      if (du == dv) break;
      if (du < dv)
        ++pu;
      else
        ++pv;
      continue;
    }
    if (pu->path_depth != pv->path_depth) {
      if (pu->path_depth < pv->path_depth)
        ++pu;
      else
        ++pv;
      continue;
    }
    common(pu, pv);
    ++pu;
    ++pv;
  }
  return steps;
}

/// d(u,v) upper estimate from two labels; kInfiniteWeight when the labels
/// share no usable path (different components).
Weight query_labels(const LabelView& u, const LabelView& v);

/// Cost attribution of one query_labels call, for tail-latency analysis:
/// how many part-header pairs the walk compared and connections the sweeps
/// read, and which (node, path) pair's sweep produced the winning minimum,
/// at which depth of the decomposition tree (deep levels mean long chains,
/// long sweeps, tail latency). The win_* fields stay -1 when no finite
/// estimate exists (disconnected endpoints, or no common part).
struct QueryStats {
  std::uint32_t walk_steps = 0;
  std::uint32_t entries_scanned = 0;
  std::int32_t win_node = -1;
  std::int32_t win_path = -1;
  std::int32_t win_level = -1;
};

/// Same estimate as the plain overload, filling `stats` as a side effect.
Weight query_labels(const LabelView& u, const LabelView& v, QueryStats& stats);

/// Drops the dominated connections of one prefix-sorted connection list in
/// place; the survivors keep their order at the front of `list`, and their
/// count is returned. Two linear passes: left to right an entry goes when an
/// earlier kept one has dist − prefix no larger (so of two equal entries
/// the first survives); right to left over the survivors, an entry goes
/// when a later kept one has dist + prefix no larger. Along the survivors
/// dist − prefix strictly falls and dist + prefix strictly rises — the
/// invariant check::audit_built_labels checks.
std::size_t drop_dominated(std::span<Connection> list);

/// Per-phase wall-clock breakdown of one build_labels call, for benchmarks
/// and regression attribution (bench_build records it per run).
struct BuildLabelsStats {
  double connections_seconds = 0;  ///< projections + portal Dijkstras
  double assemble_seconds = 0;     ///< count, prefix-sum and fill the arena
};

/// Builds all labels of the graph underlying `tree`, dominance-free (every
/// node's lists go through drop_dominated before assembly). Work fans out
/// within the thread budget (util::threads()) at two levels — nodes
/// largest-first, and the portal Dijkstras inside each node's stages — and
/// arena assembly is parallel over vertices; the arena is byte-identical
/// for every budget. Throws std::invalid_argument unless epsilon is finite
/// and > 0 (check_epsilon).
LabelArena build_labels(const hierarchy::DecompositionTree& tree,
                        double epsilon, BuildLabelsStats* stats = nullptr);

}  // namespace pathsep::oracle
