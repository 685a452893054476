// pathsep-lint: hot-path — answer_timed sits under every served query; the
// cache/oracle/metrics it touches are preallocated at engine construction.
#include "service/answer_path.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"

namespace pathsep::service {

AnswerPath::AnswerPath(obs::MetricsRegistry& metrics, std::size_t levels,
                       std::size_t slowlog_capacity)
    : queries_total_(&metrics.counter("queries_total")),
      cache_hits_(&metrics.counter("cache_hits")),
      cache_misses_(&metrics.counter("cache_misses")),
      latency_(&metrics.histogram("query_latency_ns")),
      answers_cached_(&metrics.counter("answers_total", {{"level", "cached"}})),
      answers_self_(&metrics.counter("answers_total", {{"level", "self"}})),
      answers_unreachable_(
          &metrics.counter("answers_total", {{"level", "unreachable"}})),
      slowlog_(slowlog_capacity) {
  const std::size_t count = std::max<std::size_t>(1, levels);
  answers_level_.reserve(count);
  for (std::size_t level = 0; level < count; ++level)
    answers_level_.push_back(
        &metrics.counter("answers_total", {{"level", std::to_string(level)}}));
}

graph::Weight AnswerPath::answer_timed(const oracle::PathOracle& oracle,
                                       ResultCache* cache, graph::Vertex u,
                                       graph::Vertex v, std::uint64_t t0,
                                       std::uint64_t* t1_out) {
  graph::Weight result;
  oracle::QueryStats stats;
  const std::uint64_t key = ResultCache::key(u, v);
  const std::optional<graph::Weight> hit =
      cache != nullptr ? cache->get(key) : std::nullopt;
  const bool cached = hit.has_value();
  if (cached) {
    cache_hits_->inc();
    result = *hit;
  } else {
    // Without a table every query is a miss, so hits + misses ==
    // queries_total still holds.
    cache_misses_->inc();
    result = oracle.query_stats(u, v, stats);
    if (cache != nullptr) cache->put(key, result);
  }
  queries_total_->inc();

  // Exactly one "answers_total" instance per query, so the family sums to
  // queries_total (the invariant the exporter tests pin down).
  obs::SlowQuery::Outcome outcome;
  if (cached) {
    answers_cached_->inc();
    outcome = obs::SlowQuery::Outcome::kCached;
  } else if (u == v) {
    answers_self_->inc();
    outcome = obs::SlowQuery::Outcome::kSelf;
  } else if (result == graph::kInfiniteWeight) {
    answers_unreachable_->inc();
    outcome = obs::SlowQuery::Outcome::kUnreachable;
  } else {
    const std::size_t level = std::min(
        answers_level_.size() - 1,
        static_cast<std::size_t>(std::max<std::int32_t>(0, stats.win_level)));
    answers_level_[level]->inc();
    outcome = obs::SlowQuery::Outcome::kOracle;
  }

  const std::uint64_t t1 = obs::window_now_ns();
  const std::uint64_t elapsed = t1 - t0;
  latency_->record(elapsed);
  window_.record(elapsed, t1);
  // Tail check is one relaxed load; only queries slow enough to enter the
  // log pay the stripe lock (and, when tracing, materialize their exemplar
  // span — tail-based sampling, see obs::commit_span).
  if (elapsed >= slowlog_.admission_floor()) {
    obs::SlowQuery slow;
    slow.u = u;
    slow.v = v;
    slow.latency_ns = elapsed;
    slow.when_ns = t1;
    slow.entries_scanned = stats.entries_scanned;
    slow.win_node = stats.win_node;
    slow.win_level = stats.win_level;
    slow.outcome = outcome;
    PATHSEP_OBS_ONLY(
        slow.span_id = obs::commit_span("service.slow_query", t0, t1);)
    slowlog_.record(slow);
  }
  *t1_out = t1;
  return result;
}

void AnswerPath::answer_chunk(const oracle::PathOracle& oracle,
                              ResultCache* cache, const Query* queries,
                              graph::Weight* results, std::size_t count) {
  // Chained timestamps: the end reading of one query starts the next, so a
  // chunk pays count + 1 clock reads total. The inter-query gap folded into
  // each sample is a handful of loop instructions — noise next to a label
  // merge sweep.
  std::uint64_t t = obs::window_now_ns();
  for (std::size_t i = 0; i < count; ++i)
    results[i] =
        answer_timed(oracle, cache, queries[i].u, queries[i].v, t, &t);
}

}  // namespace pathsep::service
