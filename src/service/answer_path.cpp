// pathsep-lint: hot-path — answer() sits under every served query; the
// cache/oracle/metrics it touches are preallocated at engine construction,
// and a chunk's tally lives on its stack.
#include "service/answer_path.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "obs/trace.hpp"

namespace pathsep::service {

AnswerPath::AnswerPath(obs::MetricsRegistry& metrics, std::size_t levels,
                       std::size_t slowlog_capacity,
                       std::uint64_t (*clock)())
    : clock_(clock),
      queries_total_(&metrics.counter("queries_total")),
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

void AnswerPath::flush(Tally& tally, std::uint64_t now_ns) {
  if (tally.latency.count == 0) return;
  queries_total_->inc(tally.latency.count);
  if (tally.hits != 0) {
    cache_hits_->inc(tally.hits);
    answers_cached_->inc(tally.hits);
  }
  if (tally.misses != 0) cache_misses_->inc(tally.misses);
  if (tally.self != 0) answers_self_->inc(tally.self);
  if (tally.unreachable != 0) answers_unreachable_->inc(tally.unreachable);
  const std::size_t levels = std::min(kTallyLevels, answers_level_.size());
  for (std::size_t level = 0; level < levels; ++level)
    if (tally.levels[level] != 0)
      answers_level_[level]->inc(tally.levels[level]);
  latency_->record(tally.latency);
  window_.record(tally.latency, now_ns);
  const std::uint64_t last_ns = tally.last_ns;
  const std::uint64_t window_end = tally.window_end;
  tally = Tally{};
  tally.last_ns = last_ns;
  tally.window_end = window_end;
}

void AnswerPath::answer(const oracle::PathOracle& oracle, ResultCache* cache,
                        const Query* queries, const std::uint32_t* order,
                        std::size_t count, graph::Weight* results,
                        Tally& tally) {
  if (count == 0) return;
  const auto index = [order](std::size_t k) -> std::size_t {
    return order != nullptr ? order[k] : k;
  };
  // Chained readings: the end reading of one unit starts the next, also
  // across the calls that share `tally`, so u units pay u + 1 clock reads
  // total. The gap folded into a unit is a handful of loop instructions (or
  // one chunk claim) — noise next to 16 label merge sweeps.
  const std::uint64_t interval = window_.interval_ns();
  std::uint64_t t = tally.last_ns;
  if (t == 0) {
    t = clock_();
    tally.window_end = (t / interval + 1) * interval;
  }
  for (std::size_t begin = 0; begin < count; begin += kUnit) {
    const std::size_t end = std::min(count, begin + kUnit);
    // The unit's costliest query (most entries scanned; the first on ties),
    // its slow-log exemplar should the unit be admitted.
    std::size_t worst = begin;
    oracle::QueryStats worst_stats;
    auto worst_outcome = obs::SlowQuery::Outcome::kCached;
    for (std::size_t k = begin; k < end; ++k) {
      // Start the loads of the next queries, one stage each: k + 3's label
      // offsets, k + 2's part headers (through the offsets fetched a query
      // ago), k + 1's first hot entries (through those headers) and its
      // cache set, so they overlap this query's sweep.
      if (k + 3 < count) {
        const Query& ahead = queries[index(k + 3)];
        oracle.prefetch_offsets(ahead.u, ahead.v);
      }
      if (k + 2 < count) {
        const Query& ahead = queries[index(k + 2)];
        oracle.prefetch(ahead.u, ahead.v);
      }
      if (k + 1 < count) {
        const Query& next = queries[index(k + 1)];
        oracle.prefetch_hot(next.u, next.v);
        if (cache != nullptr) cache->prefetch(ResultCache::key(next.u, next.v));
      }
      const std::size_t i = index(k);
      const graph::Vertex u = queries[i].u;
      const graph::Vertex v = queries[i].v;
      graph::Weight result;
      oracle::QueryStats stats;
      obs::SlowQuery::Outcome outcome;
      const std::uint64_t key = ResultCache::key(u, v);
      const std::optional<graph::Weight> hit =
          cache != nullptr ? cache->get(key) : std::nullopt;
      // Exactly one answer outcome per query, so the answers_total family
      // sums to queries_total (the invariant the exporter tests pin down).
      if (hit.has_value()) {
        ++tally.hits;
        result = *hit;
        outcome = obs::SlowQuery::Outcome::kCached;
      } else {
        // Without a table every query is a miss, so hits + misses ==
        // queries_total still holds.
        ++tally.misses;
        result = oracle.query_stats(u, v, stats);
        if (cache != nullptr) cache->put(key, result);
        if (u == v) {
          ++tally.self;
          outcome = obs::SlowQuery::Outcome::kSelf;
        } else if (result == graph::kInfiniteWeight) {
          ++tally.unreachable;
          outcome = obs::SlowQuery::Outcome::kUnreachable;
        } else {
          const std::size_t level =
              std::min(answers_level_.size() - 1,
                       static_cast<std::size_t>(
                           std::max<std::int32_t>(0, stats.win_level)));
          if (level < kTallyLevels)
            ++tally.levels[level];
          else
            answers_level_[level]->inc();
          outcome = obs::SlowQuery::Outcome::kOracle;
        }
      }
      if (k == begin || stats.entries_scanned > worst_stats.entries_scanned) {
        worst = k;
        worst_stats = stats;
        worst_outcome = outcome;
      }
      results[i] = result;
    }

    const std::uint64_t t1 = clock_();
    if (t1 >= tally.window_end) {
      // Every unit tallied so far ended in the window of `t`.
      flush(tally, t);
      tally.window_end = (t1 / interval + 1) * interval;
    }
    const std::uint64_t elapsed = t1 - t;
    tally.latency.add_n(end - begin, elapsed);
    // Tail check is one relaxed load per unit; only units slow enough to
    // enter the log pay the stripe lock (and, when tracing, materialize
    // their exemplar span — tail-based sampling, see obs::commit_span).
    const std::uint64_t mean = elapsed / (end - begin);
    if (mean >= slowlog_.admission_floor()) {
      obs::SlowQuery slow;
      slow.u = queries[index(worst)].u;
      slow.v = queries[index(worst)].v;
      slow.latency_ns = mean;
      slow.when_ns = t1;
      slow.entries_scanned = worst_stats.entries_scanned;
      slow.win_node = worst_stats.win_node;
      slow.win_level = worst_stats.win_level;
      slow.outcome = worst_outcome;
      slow.span_id = obs::commit_span("service.slow_query", t, t1);
      slowlog_.record(slow);
    }
    t = t1;
  }
  tally.last_ns = t;
}

}  // namespace pathsep::service
