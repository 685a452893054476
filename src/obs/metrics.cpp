#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace pathsep::obs {

std::size_t latency_bucket(std::uint64_t nanos) {
  // bit_width(0|1)-1 == 0, so zero lands in bucket 0; huge samples clamp
  // into the last bucket (2^47 ns ~ 39 hours, far beyond any query).
  const std::size_t bucket =
      static_cast<std::size_t>(std::bit_width(nanos | 1) - 1);
  return bucket >= LatencyHistogram::kBuckets ? LatencyHistogram::kBuckets - 1
                                              : bucket;
}

double percentile_from_buckets(std::span<const std::uint64_t> buckets,
                               std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  // Rank of the requested quantile, 1-based. The comparisons are written so
  // NaN falls into the first branch (minimum), never an out-of-range rank.
  std::uint64_t rank;
  if (!(q > 0.0)) {
    rank = 1;  // q <= 0 or NaN: the smallest recorded sample
  } else if (q >= 1.0) {
    rank = total;  // the largest recorded sample
  } else {
    rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    rank = std::clamp<std::uint64_t>(rank, 1, total);
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Geometric midpoint of [2^i, 2^{i+1}): sqrt(2)*2^i. Bucket 0 holds
      // [0, 2), report 1.
      return i == 0 ? 1.0 : std::exp2(static_cast<double>(i) + 0.5);
    }
  }
  return std::exp2(static_cast<double>(buckets.size() - 1) + 0.5);
}

void LatencyHistogram::record(std::uint64_t nanos) {
  buckets_[latency_bucket(nanos)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
}

void LatencyHistogram::record(const LatencyTally& tally) {
  for (std::size_t i = 0; i < kBuckets; ++i)
    if (tally.buckets[i] != 0)
      buckets_[i].fetch_add(tally.buckets[i], std::memory_order_relaxed);
  sum_.fetch_add(tally.sum_nanos, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_)
    total += bucket.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::mean_nanos() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum_nanos()) / static_cast<double>(n);
}

double LatencyHistogram::percentile_nanos(double q) const {
  std::array<std::uint64_t, kBuckets> copy;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    copy[i] = buckets_[i].load(std::memory_order_relaxed);
    total += copy[i];
  }
  return percentile_from_buckets(copy, total, q);
}

namespace {

/// Canonical map key: name plus sorted labels, unit-separator delimited so
/// distinct label sets can never collide with a plain name.
std::string slot_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

void render_labels(std::ostringstream& out, const Labels& labels) {
  if (labels.empty()) return;
  out << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out << ',';
    out << labels[i].first << "=\"" << labels[i].second << '"';
  }
  out << '}';
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  const Labels canon = canonical(labels);
  util::LockGuard lock(mutex_);
  auto& slot = counters_[slot_key(name, canon)];
  if (!slot.metric) {
    slot.name = name;
    slot.labels = canon;
    slot.metric = std::make_unique<Counter>();
  }
  return *slot.metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  const Labels canon = canonical(labels);
  util::LockGuard lock(mutex_);
  auto& slot = gauges_[slot_key(name, canon)];
  if (!slot.metric) {
    slot.name = name;
    slot.labels = canon;
    slot.metric = std::make_unique<Gauge>();
  }
  return *slot.metric;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             const Labels& labels) {
  const Labels canon = canonical(labels);
  util::LockGuard lock(mutex_);
  auto& slot = histograms_[slot_key(name, canon)];
  if (!slot.metric) {
    slot.name = name;
    slot.labels = canon;
    slot.metric = std::make_unique<LatencyHistogram>();
  }
  return *slot.metric;
}

std::string MetricsRegistry::report() const {
  util::LockGuard lock(mutex_);
  std::ostringstream out;
  for (const auto& [key, slot] : counters_) {
    out << slot.name;
    render_labels(out, slot.labels);
    out << " " << slot.metric->value() << "\n";
  }
  for (const auto& [key, slot] : gauges_) {
    out << slot.name;
    render_labels(out, slot.labels);
    out << " " << slot.metric->value() << "\n";
  }
  for (const auto& [key, slot] : histograms_) {
    out << slot.name;
    render_labels(out, slot.labels);
    out << "{count=" << slot.metric->count()
        << ", mean_ns=" << slot.metric->mean_nanos()
        << ", p50_ns=" << slot.metric->percentile_nanos(0.50)
        << ", p95_ns=" << slot.metric->percentile_nanos(0.95)
        << ", p99_ns=" << slot.metric->percentile_nanos(0.99) << "}\n";
  }
  return out.str();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  util::LockGuard lock(mutex_);
  MetricsSnapshot out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, slot] : counters_) {
    MetricSample s;
    s.name = slot.name;
    s.labels = slot.labels;
    s.kind = MetricKind::kCounter;
    s.counter_value = slot.metric->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, slot] : gauges_) {
    MetricSample s;
    s.name = slot.name;
    s.labels = slot.labels;
    s.kind = MetricKind::kGauge;
    s.gauge_value = slot.metric->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, slot] : histograms_) {
    MetricSample s;
    s.name = slot.name;
    s.labels = slot.labels;
    s.kind = MetricKind::kHistogram;
    s.histogram.count = slot.metric->count();
    s.histogram.sum_nanos = slot.metric->sum_nanos();
    s.histogram.mean_nanos = slot.metric->mean_nanos();
    s.histogram.p50_nanos = slot.metric->percentile_nanos(0.50);
    s.histogram.p95_nanos = slot.metric->percentile_nanos(0.95);
    s.histogram.p99_nanos = slot.metric->percentile_nanos(0.99);
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
      s.histogram.buckets[i] = slot.metric->bucket_count(i);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name ||
                     (a.name == b.name && a.labels < b.labels);
            });
  return out;
}

MetricsRegistry& default_registry() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace pathsep::obs
