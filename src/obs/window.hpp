// Sliding-window latency view: rolling QPS and live p50/p95/p99.
//
// A WindowedHistogram is a ring of fixed-interval windows, each holding the
// same power-of-two bucket vocabulary as LatencyHistogram (obs/metrics.hpp),
// so cumulative and windowed views of one latency stream are directly
// comparable. Recording is lock-free from any thread and takes a whole
// LatencyTally at once: the tally's wall time selects a ring slot, a stale
// slot is claimed with one CAS and recycled in place, and the tally lands
// with one relaxed fetch_add per non-empty bucket plus its count and sum.
// The claim is paid once per tally, not once per sample. Every sample of a
// tally is charged to the window of `now_ns`, so a recorder whose samples
// span a window boundary publishes one tally per window (the serving path
// does: service/answer_path.hpp). The caller supplies `now_ns`
// (window_now_ns(), or the end reading of the latency measurement it
// already paid for), so a windowed record adds no clock read of its own to
// the hot path, and tests can drive a manual clock for exact, deterministic
// aggregates.
//
// The one documented race: a tally that lands on a slot exactly while
// another thread is recycling it for a new window is dropped — its whole
// count added to dropped() — rather than recorded against the wrong window.
// It is bounded to the window boundaries, never the steady state. A
// never-used slot needs no reset, so it is published in one CAS and its
// first tallies never drop.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"

namespace pathsep::obs {

/// Nanoseconds since the process observability epoch (monotonic). The
/// serving layer reads it once per measured region and feeds the same value
/// to the latency math and the windowed record.
std::uint64_t window_now_ns();

class WindowedHistogram {
 public:
  static constexpr std::size_t kBuckets = LatencyHistogram::kBuckets;

  /// `interval_ns` is the width of one window; `slots` the ring size — the
  /// view can look back at most `slots` windows (one of them partial).
  explicit WindowedHistogram(std::uint64_t interval_ns = 1'000'000'000,
                             std::size_t slots = 8);

  /// Adds every sample of `tally` to the window of `now_ns`.
  void record(const LatencyTally& tally, std::uint64_t now_ns);
  /// One sample: a one-sample tally.
  void record(std::uint64_t nanos, std::uint64_t now_ns);

  /// Point-in-time aggregate of the windows overlapping
  /// [now - lookback * interval, now]. lookback == 0 means the whole ring.
  struct View {
    std::uint64_t interval_ns = 0;
    std::size_t windows = 0;  ///< windows aggregated (incl. the partial one)
    std::uint64_t count = 0;
    std::uint64_t sum_nanos = 0;
    double qps = 0;  ///< count over the aggregated window span
    double p50_nanos = 0;
    double p95_nanos = 0;
    double p99_nanos = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  View view(std::uint64_t now_ns, std::size_t lookback = 0) const;

  /// Samples of tallies dropped on the claim race at a window boundary
  /// (see header).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::uint64_t interval_ns() const { return interval_ns_; }
  std::size_t num_slots() const { return num_slots_; }

 private:
  // A slot's `tag` packs (window index << 1) | claiming-bit; window indices
  // start at 1 (see window_index), so tag 0 means "never used".
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };

  std::uint64_t window_index(std::uint64_t now_ns) const {
    return now_ns / interval_ns_ + 1;  // 1-based so tag 0 stays "empty"
  }

  friend struct WindowedHistogramTestPeer;  ///< stages a claim race in tests

  std::uint64_t interval_ns_;
  std::size_t num_slots_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace pathsep::obs
