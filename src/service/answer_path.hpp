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
// answer_chunk answers back-to-back queries with *chained* timestamps: the
// end reading of query i is the start reading of query i+1, so a chunk of n
// queries costs n+1 clock reads instead of 2n. On sub-microsecond oracle
// queries the clock reads are a large share of the budget, so a batch must
// not pay them twice.
//
// For the same reason a chunk does not touch the shared metrics per query.
// It tallies hits, misses, answer outcomes and latencies in plain locals
// (obs::LatencyTally for the latencies) and publishes them once, at chunk
// end — one relaxed RMW per non-zero field instead of about eight per
// query, all on cells every shard worker shares. It also publishes early
// when a query's end reading falls in a new window of the windowed
// histogram, so every sample is charged to the window it ended in. A
// shard worker's chunk is one drain (≤ ShardedEngine::kDrainBatch
// queries), so exported serving metrics lag the answers by at most one
// drain and are exact once traffic stops: a chunk publishes before its
// answers are handed back.
// Slow-log admission stays per query (one relaxed load of the floor).
#pragma once

#include <cstddef>
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

  /// queries[i] -> results[i], back-to-back with chained timestamps, through
  /// `cache` (the caller's own table; null answers every query uncached).
  /// The chunk's metrics are published before it returns.
  void answer_chunk(const oracle::PathOracle& oracle, ResultCache* cache,
                    const Query* queries, graph::Weight* results,
                    std::size_t count);

  const obs::WindowedHistogram& window() const { return window_; }
  const obs::SlowLog& slowlog() const { return slowlog_; }

 private:
  /// A chunk's unpublished counts (defined in answer_path.cpp).
  struct Tally;
  /// Adds `tally` to the shared metrics, charging its latencies to the
  /// window of `now_ns`, and empties it.
  void publish(Tally& tally, std::uint64_t now_ns);

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
