// Unified metrics layer shared by every subsystem.
//
// Generalizes the original service-local counters into a process-wide
// vocabulary: monotonic Counter, signed Gauge, and the fixed-bucket
// LatencyHistogram, all recordable lock-free from any thread, owned by a
// MetricsRegistry that also supports labeled metric families
// (`counter("separator_dispatch_total", {{"strategy", "planar"}})`).
// References returned by the registry are stable for its lifetime, so hot
// paths resolve once and then record with relaxed atomics only. A path that
// records many samples in a row (a shard worker's drain) counts them first
// in plain locals — a LatencyTally for latencies — and publishes the totals
// with one RMW per metric, so the shared cells see one write per drain
// instead of one per sample.
//
// `default_registry()` is the process-wide instance the construction
// pipeline (hierarchy/, separator/, oracle/, sssp/) records into; the query
// service keeps private registries per engine. Snapshots feed the exporters
// in obs/export.hpp. Instrumentation is always compiled in.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace pathsep::obs {

/// Bucket index of a nanosecond sample in the repo-wide power-of-two
/// histogram vocabulary: bucket i covers [2^i, 2^{i+1}) ns (bucket 0
/// includes 0); out-of-range samples clamp into the last bucket. Shared by
/// LatencyHistogram and the windowed view (obs/window.hpp) so their buckets
/// are directly comparable.
std::size_t latency_bucket(std::uint64_t nanos);

/// Quantile estimate over one such bucket vector: the geometric midpoint of
/// the bucket containing the rank (within 2x of the true order statistic).
/// `total` must equal the sum of `buckets`. Edge cases follow
/// LatencyHistogram::percentile_nanos exactly (empty -> 0, q <= 0 / NaN ->
/// smallest bucket, q >= 1 -> largest).
double percentile_from_buckets(std::span<const std::uint64_t> buckets,
                               std::uint64_t total, double q);

/// Monotonic atomic counter. Relaxed ordering: totals are read after the
/// workload quiesces, so no ordering with other memory is needed.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins signed gauge (queue depths, snapshot sizes, live spans).
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

struct LatencyTally;

/// Fixed-bucket latency histogram: bucket i counts samples in
/// [2^i, 2^{i+1}) nanoseconds (bucket 0 includes 0). Recording a sample is
/// two relaxed fetch_adds (bucket, sum); recording a tally is one per
/// non-empty bucket plus the sum. Percentiles are computed on read by
/// walking buckets and reporting the geometric midpoint of the one
/// containing the rank, so they are bucket-resolution estimates (within
/// 2x), not exact order stats.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t nanos);
  /// Adds every sample of `tally` (only its non-zero buckets are touched).
  void record(const LatencyTally& tally);

  std::uint64_t count() const;
  std::uint64_t sum_nanos() const { return sum_.load(std::memory_order_relaxed); }
  double mean_nanos() const;

  /// Estimated latency in nanoseconds at quantile q. Edge cases are defined
  /// exactly: an empty histogram returns 0 for every q; q <= 0 (and NaN)
  /// reports the bucket of the smallest sample, q >= 1 the bucket of the
  /// largest; with a single sample every quantile agrees.
  double percentile_nanos(double q) const;

  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Plain, single-thread latency accumulator in LatencyHistogram's bucket
/// vocabulary: a recorder adds samples to a tally on its own stack and
/// publishes them at once through LatencyHistogram::record(tally) or
/// WindowedHistogram::record(tally, now) (obs/window.hpp).
struct LatencyTally {
  std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_nanos = 0;

  void add(std::uint64_t nanos) {
    ++buckets[latency_bucket(nanos)];
    ++count;
    sum_nanos += nanos;
  }

  /// Adds `samples` samples that took `total_nanos` together, each in the
  /// bucket of their mean: `count` and `sum_nanos` stay exact, only the
  /// spread among them is lost. No-op when `samples` is 0.
  void add_n(std::uint64_t samples, std::uint64_t total_nanos) {
    if (samples == 0) return;
    buckets[latency_bucket(total_nanos / samples)] += samples;
    count += samples;
    sum_nanos += total_nanos;
  }
};

/// RAII stopwatch over util::Timer (the repo's single stopwatch): records
/// the scope's elapsed nanoseconds into a histogram on destruction.
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram& hist) : hist_(hist) {}
  ~ScopedLatency() { hist_.record(timer_.elapsed_ns()); }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  LatencyHistogram& hist_;
  util::Timer timer_;
};

/// Label set of one metric instance, e.g. {{"strategy", "planar"}}.
/// Canonicalized (sorted by key) on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one metric, decoupled from the live atomics so
/// exporters can render without holding the registry lock.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  struct Histogram {
    std::uint64_t count = 0;
    std::uint64_t sum_nanos = 0;
    double mean_nanos = 0;
    double p50_nanos = 0;
    double p95_nanos = 0;
    double p99_nanos = 0;
    std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
  } histogram;
};

using MetricsSnapshot = std::vector<MetricSample>;

/// Owns counters, gauges and histograms by (name, labels); references
/// returned are stable for the registry's lifetime, so hot paths resolve
/// once and then record lock-free. `report()` renders everything for CLI
/// output; `snapshot()` feeds the JSON/Prometheus exporters.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {})
      PATHSEP_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, const Labels& labels = {})
      PATHSEP_EXCLUDES(mutex_);
  LatencyHistogram& histogram(const std::string& name,
                              const Labels& labels = {})
      PATHSEP_EXCLUDES(mutex_);

  /// Multi-line "name value" / "name{count=...,p50=...}" text block.
  std::string report() const PATHSEP_EXCLUDES(mutex_);

  /// Samples every metric, sorted by (name, labels).
  MetricsSnapshot snapshot() const PATHSEP_EXCLUDES(mutex_);

 private:
  template <typename M>
  struct Slot {
    std::string name;
    Labels labels;
    std::unique_ptr<M> metric;
  };
  template <typename M>
  using SlotMap = std::map<std::string, Slot<M>>;  ///< keyed by name + labels

  mutable util::Mutex mutex_;  ///< protects the maps, not the metric values
  SlotMap<Counter> counters_ PATHSEP_GUARDED_BY(mutex_);
  SlotMap<Gauge> gauges_ PATHSEP_GUARDED_BY(mutex_);
  SlotMap<LatencyHistogram> histograms_ PATHSEP_GUARDED_BY(mutex_);
};

/// Process-wide registry the construction pipeline records into. Never
/// destroyed before any recording site (function-local static).
MetricsRegistry& default_registry();

}  // namespace pathsep::obs

// Instrumentation call-site helpers.
#define PATHSEP_OBS_CAT2(a, b) a##b
#define PATHSEP_OBS_CAT(a, b) PATHSEP_OBS_CAT2(a, b)

/// Records the enclosing scope's wall time into the named histogram of the
/// default registry (one registry map lookup per invocation — use on
/// per-stage paths, not per-element ones).
#define PATHSEP_STAGE_TIMER(hist_name)                                \
  ::pathsep::obs::ScopedLatency PATHSEP_OBS_CAT(pathsep_stage_,       \
                                                __COUNTER__) {        \
    ::pathsep::obs::default_registry().histogram(hist_name)           \
  }
