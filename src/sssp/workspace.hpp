// Reusable single-source shortest-path scratch space.
//
// Every Dijkstra call used to allocate and zero two O(n) arrays (dist,
// parent) plus a heap; on the construction hot paths — separator finders
// probing residual graphs, one masked run per distinct portal vertex in the
// oracle build — those clears dominate once the per-run settled set is small.
// DijkstraWorkspace keeps the arrays alive across runs and resets them in
// O(1) with an epoch stamp: a slot is valid only when its stamp matches the
// current run's epoch, so `begin()` just bumps the epoch. The radix queue's
// buckets are reused too, so a steady-state run allocates nothing.
//
// Results live in the workspace until the next run on it. The per-thread
// instance behind `thread_workspace()` gives every construction worker its
// own arrays ("one workspace per worker thread"); callers must finish
// reading a run's results before starting any other sssp call on the same
// thread (the allocation-free dijkstra entry points and the legacy
// ShortestPaths-returning API both recycle it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sssp/radix_queue.hpp"

namespace pathsep::sssp {

using graph::Vertex;
using graph::Weight;

class DijkstraWorkspace {
 public:
  /// Starts a new run over an n-vertex graph. O(1) amortized: grows the
  /// arrays on the largest graph seen, never clears them.
  void begin(std::size_t n) {
    n_ = n;
    ++epoch_;
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      dist_.resize(n);
      parent_.resize(n);
    }
    queue_.clear();
  }

  /// Records the tentative distance/parent of v in the current run.
  void update(Vertex v, Weight d, Vertex parent) {
    stamp_[v] = epoch_;
    dist_[v] = d;
    parent_[v] = parent;
  }

  /// Distance settled or tentative in the current run; +inf if untouched.
  Weight dist(Vertex v) const {
    return stamp_[v] == epoch_ ? dist_[v] : graph::kInfiniteWeight;
  }

  /// Shortest-path-tree parent of v, kInvalidVertex if untouched or a source.
  Vertex parent(Vertex v) const {
    return stamp_[v] == epoch_ ? parent_[v] : graph::kInvalidVertex;
  }

  bool reached(Vertex v) const { return stamp_[v] == epoch_; }

  /// Vertex count of the current run's graph.
  std::size_t num_vertices() const { return n_; }

  // ---- anchor channel (multi-source projection runs) -----------------------
  // An anchored run additionally records, per reached vertex, the index of
  // the source whose shortest-path tree it lies in. Slots share the main
  // epoch stamp, so they are only meaningful after a run that actually wrote
  // them (dijkstra_project); other runs leave them stale.

  /// Sizes the anchor array for the current run. Call after begin().
  void enable_anchors() {
    if (anchor_.size() < stamp_.size()) anchor_.resize(stamp_.size());
  }

  void set_anchor(Vertex v, std::uint32_t anchor) { anchor_[v] = anchor; }

  /// Index (into the run's source span) of the nearest source of v; only
  /// valid when v was reached by an anchor-tracking run.
  std::uint32_t anchor(Vertex v) const {
    return stamp_[v] == epoch_ ? anchor_[v] : UINT32_MAX;
  }

  // ---- reached-list channel (sparse-output runs) ---------------------------
  // A run that enables this channel appends every vertex to reached_list()
  // the first time its slot is written, so a caller can export the settled
  // set in O(|reached|) instead of scanning all n slots — the win on
  // residual-stage runs that touch a small fraction of the graph.

  /// Arms first-touch recording for the current run. Call after begin();
  /// reserves up to n slots once, so recording itself never allocates.
  void enable_reached_list() {
    reached_list_.clear();
    if (reached_list_.capacity() < n_) reached_list_.reserve(n_);
  }

  /// update() plus first-touch append; pairs with enable_reached_list().
  void update_tracked(Vertex v, Weight d, Vertex parent) {
    if (stamp_[v] != epoch_) reached_list_.push_back(v);
    update(v, d, parent);
  }

  /// Vertices touched by the last reached-tracking run, in first-touch
  /// order (deterministic: the runner's settle order is canonical).
  std::span<const Vertex> reached_list() const { return reached_list_; }

  // ---- target marking (early-terminated runs) ------------------------------
  // A run given a target set stops settling once every marked vertex is
  // final; the marks live in their own epoch-stamped array so registering a
  // target set is O(|targets|), not O(n).

  /// Marks the next run's targets over an n-vertex graph; returns the number
  /// of distinct targets. Takes n explicitly so marking works on a fresh
  /// workspace that has not run anything yet (begin() has not sized stamp_).
  std::size_t set_targets(std::size_t n, std::span<const Vertex> targets) {
    if (target_stamp_.size() < n) target_stamp_.resize(n, 0);
    ++target_epoch_;
    std::size_t distinct = 0;
    for (Vertex t : targets)
      if (target_stamp_[t] != target_epoch_) {
        target_stamp_[t] = target_epoch_;
        ++distinct;
      }
    return distinct;
  }

  /// True when v is in the most recently registered target set.
  bool is_target(Vertex v) const {
    return v < target_stamp_.size() && target_stamp_[v] == target_epoch_;
  }

  /// The run's priority queue, emptied by begin(): pops in (dist, id)
  /// order, so settle order — and every parent choice on equal-length
  /// paths — is canonical.
  RadixQueue& queue() { return queue_; }

  /// Lifetime totals of the Dijkstra work routed through this workspace.
  /// The runner adds one batch per run (never per queue operation), so
  /// accounting stays off the inner loop; obs counters mirror these
  /// per-process. Plain (non-atomic) on purpose — a workspace is owned by
  /// one thread.
  struct WorkStats {
    std::uint64_t runs = 0;
    std::uint64_t settled = 0;     ///< pops accepted (not stale)
    std::uint64_t relaxed = 0;     ///< edge relaxations that improved a dist
    std::uint64_t heap_pushes = 0;  ///< queue inserts
    std::uint64_t heap_pops = 0;    ///< queue extracts, stale ones included
  };
  const WorkStats& work() const { return work_; }
  void record_work(const WorkStats& batch) {
    work_.runs += batch.runs;
    work_.settled += batch.settled;
    work_.relaxed += batch.relaxed;
    work_.heap_pushes += batch.heap_pushes;
    work_.heap_pops += batch.heap_pops;
  }
  void reset_work() { work_ = WorkStats{}; }

 private:
  std::vector<Weight> dist_;
  std::vector<Vertex> parent_;
  std::vector<std::uint64_t> stamp_;  ///< slot valid iff stamp_[v] == epoch_
  std::uint64_t epoch_ = 0;           ///< 0 = never used; begin() pre-increments
  RadixQueue queue_;
  std::size_t n_ = 0;
  WorkStats work_;
  std::vector<std::uint32_t> anchor_;        ///< nearest-source index channel
  std::vector<Vertex> reached_list_;         ///< first-touch order, opt-in
  std::vector<std::uint64_t> target_stamp_;  ///< target iff == target_epoch_
  std::uint64_t target_epoch_ = 0;           ///< 0 = no target set registered
};

/// The calling thread's workspace (thread_local): construction workers each
/// get their own, so concurrent tree/label builds share nothing. Any sssp
/// call on this thread may recycle it — extract results before the next one.
DijkstraWorkspace& thread_workspace();

}  // namespace pathsep::sssp
