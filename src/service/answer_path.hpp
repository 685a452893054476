// The per-query serving path under ShardedEngine: result-cache lookup,
// cumulative and windowed latency, the answers_total attribution family, and
// slow-log admission with tail-sampled exemplar spans. One AnswerPath
// instance is safe for any number of concurrent callers: each answer_chunk
// call counts on its own stack and publishes to the shared atomic counters,
// the lock-free windowed histogram and the lock-striped slow-log. The cache
// is not AnswerPath's: answer_chunk takes the calling shard worker's private
// table, and queries answered on any other thread go straight to the oracle
// (each counted as a cache miss).
//
// Timing is per unit, not per query: answer() times each run of at most
// kUnit queries (one claimed FrameTable chunk) with one clock read, chained
// so the end reading of one unit is the start reading of the next, also
// across the calls that share a tally. A clock read is ordered: it keeps the
// next query's label loads from overlapping the current query, so reading
// the clock per query cost about as much as a third of a uniform query.
// Every query of a unit is charged the unit's mean (LatencyTally::add_n):
// the query_latency_ns histogram's count and sum stay exact, but its
// buckets, the windowed histogram and the slow-log see unit means, never a
// single query's own time. Slow-log admission is one check per unit, against
// that mean; the exemplar names the unit's costliest query (most entries
// scanned) with the mean as its latency. While one query is answered the
// next one's labels and cache set are prefetched.
//
// For the same reason answering does not touch the shared metrics per
// query. It tallies hits, misses, answer outcomes and latencies in a Tally
// of plain fields (obs::LatencyTally for the latencies) that the caller
// keeps across answer() calls and publishes once — one relaxed RMW per
// non-zero field instead of about eight per query, all on cells every
// shard worker shares. It also publishes early when a unit's end reading
// falls in a new window of the windowed histogram, so every sample is
// charged to the window it ended in. A shard worker publishes once per
// frame it worked on, before it counts its answers done, so exported
// serving metrics lag the answers by at most one frame's share and are
// exact once traffic stops.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/slowlog.hpp"
#include "obs/window.hpp"
#include "oracle/path_oracle.hpp"
#include "obs/metrics.hpp"
#include "service/result_cache.hpp"

namespace pathsep::service {

struct Query {
  graph::Vertex u = 0;
  graph::Vertex v = 0;
};

class AnswerPath {
 public:
  /// Registers the counter family and latency instruments in `metrics` and
  /// resolves them once (registry references are stable, so the hot path
  /// never does a map lookup). `levels` sizes the per-level answers_total
  /// family; at least one level counter always exists so deeper snapshots
  /// clamp instead of indexing out of range. `slowlog_capacity` is the
  /// number of slowest-query exemplars retained (0 disables the slow-log and
  /// its admission check entirely); the latency window is 8 x 1 s.
  /// `clock` takes every timestamp; tests pass a manual one.
  AnswerPath(obs::MetricsRegistry& metrics, std::size_t levels,
             std::size_t slowlog_capacity,
             std::uint64_t (*clock)() = obs::window_now_ns);

  AnswerPath(const AnswerPath&) = delete;
  AnswerPath& operator=(const AnswerPath&) = delete;

  /// Queries one clock reading times at most: a histogram or slow-log
  /// sample never covers more. FrameTable claims chunks of this size.
  static constexpr std::size_t kUnit = 16;

  /// Levels whose answers a Tally counts in place; answers won at a deeper
  /// level (a decomposition deeper than 32 levels) go straight to their
  /// counter.
  static constexpr std::size_t kTallyLevels = 32;

  /// Unpublished counts of one or more answer() calls, and the chain point
  /// of their clock readings. Lives on the answering thread's stack.
  struct Tally {
    std::uint64_t hits = 0;  ///< also the answers_total{level="cached"} count
    std::uint64_t misses = 0;
    std::uint64_t self = 0;
    std::uint64_t unreachable = 0;
    std::array<std::uint64_t, kTallyLevels> levels{};
    obs::LatencyTally latency;  ///< its count is the queries_total increment
    std::uint64_t last_ns = 0;     ///< previous end reading; 0 before any
    std::uint64_t window_end = 0;  ///< end of last_ns's latency window
  };

  /// For k < count, with i = order[k] (i = k when `order` is null):
  /// queries[i] -> results[i], through `cache` (the caller's own table; null
  /// answers every query uncached), timed in units of at most kUnit queries
  /// with one chained clock read each. Counts go to `tally`; nothing is
  /// published unless a window ends.
  void answer(const oracle::PathOracle& oracle, ResultCache* cache,
              const Query* queries, const std::uint32_t* order,
              std::size_t count, graph::Weight* results, Tally& tally);

  /// Adds `tally`'s counts to the shared metrics and empties it.
  void publish(Tally& tally) { flush(tally, tally.last_ns); }

  /// queries[i] -> results[i] for i < count as one tally (so 1 + ceil(count
  /// / kUnit) clock reads), published before it returns.
  void answer_chunk(const oracle::PathOracle& oracle, ResultCache* cache,
                    const Query* queries, graph::Weight* results,
                    std::size_t count) {
    Tally tally;
    answer(oracle, cache, queries, nullptr, count, results, tally);
    publish(tally);
  }

  const obs::WindowedHistogram& window() const { return window_; }
  const obs::SlowLog& slowlog() const { return slowlog_; }

 private:
  /// Adds `tally`'s counts to the shared metrics, charging its latencies
  /// to the window of `now_ns`, and empties them (the chain point stays).
  void flush(Tally& tally, std::uint64_t now_ns);

  std::uint64_t (*clock_)();
  obs::Counter* queries_total_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::LatencyHistogram* latency_;
  /// "answers_total" family: one counter per decomposition level
  /// ({"level","N"}), plus the non-oracle outcomes
  /// ({"level","cached"|"self"|"unreachable"}).
  std::vector<obs::Counter*> answers_level_;
  obs::Counter* answers_cached_;
  obs::Counter* answers_self_;
  obs::Counter* answers_unreachable_;
  obs::WindowedHistogram window_;
  obs::SlowLog slowlog_;
};

}  // namespace pathsep::service
