// The per-query serving path under ShardedEngine: result-cache lookup,
// cumulative and windowed latency, the answers_total attribution family, and
// slow-log admission with tail-sampled exemplar spans. One AnswerPath
// instance is safe for any number of concurrent callers — counters are
// atomic, the windowed histogram is lock-free and the slow-log is
// lock-striped. The cache is not AnswerPath's: answer_chunk takes the calling
// shard worker's private table, and queries answered on any other thread go
// straight to the oracle (each counted as a cache miss).
//
// answer_chunk answers back-to-back queries with *chained* timestamps: the
// end reading of query i is the start reading of query i+1, so a chunk of n
// queries costs n+1 clock reads instead of 2n. On sub-microsecond oracle
// queries the clock reads are a large share of the budget, so a batch must
// not pay them twice.
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
  AnswerPath(obs::MetricsRegistry& metrics, std::size_t levels,
             std::size_t slowlog_capacity);

  AnswerPath(const AnswerPath&) = delete;
  AnswerPath& operator=(const AnswerPath&) = delete;

  /// queries[i] -> results[i], back-to-back with chained timestamps, through
  /// `cache` (the caller's own table; null answers every query uncached).
  void answer_chunk(const oracle::PathOracle& oracle, ResultCache* cache,
                    const Query* queries, graph::Weight* results,
                    std::size_t count);

  const obs::WindowedHistogram& window() const { return window_; }
  const obs::SlowLog& slowlog() const { return slowlog_; }

 private:
  /// One query of a chunk: answers with `t0` as the start reading and
  /// returns the end reading through `t1_out`.
  graph::Weight answer_timed(const oracle::PathOracle& oracle,
                             ResultCache* cache, graph::Vertex u,
                             graph::Vertex v, std::uint64_t t0,
                             std::uint64_t* t1_out);

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
