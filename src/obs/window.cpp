// pathsep-lint: hot-path — record() runs once per serving drain; everything
// it touches is preallocated at construction.
#include "obs/window.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace pathsep::obs {

std::uint64_t window_now_ns() { return trace_now_ns(); }

WindowedHistogram::WindowedHistogram(std::uint64_t interval_ns,
                                     std::size_t slots)
    : interval_ns_(interval_ns), num_slots_(slots) {
  if (interval_ns == 0) throw std::invalid_argument("zero window interval");
  if (slots == 0) throw std::invalid_argument("zero window slots");
  // One-time ring allocation at construction; record() never allocates.
  // pathsep-lint: allow(hot-path-alloc)
  slots_.reset(new Slot[slots]);
}

void WindowedHistogram::record(const LatencyTally& tally,
                               std::uint64_t now_ns) {
  if (tally.count == 0) return;
  const std::uint64_t wid = window_index(now_ns);
  Slot& slot = slots_[wid % num_slots_];
  const std::uint64_t live = wid << 1;
  std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
  // A never-used slot is still all zeros: publish it as it is, with no
  // claim-and-reset phase for a concurrent recorder to collide with, so the
  // first tallies of a fresh histogram (a new engine's first drain) are
  // never dropped. A lost CAS reloads `tag` with the winner's value.
  if (tag == 0 &&
      slot.tag.compare_exchange_strong(tag, live, std::memory_order_acq_rel))
    tag = live;
  if (tag != live) {
    // The slot still holds a window `num_slots_` intervals old (or is being
    // claimed by another thread). Claim it: CAS to the claiming tag, zero
    // in place, publish. A loser re-reads once — if the winner has already
    // published, it records normally; if the reset is still in flight the
    // tally is dropped (recording into a half-zeroed slot would corrupt
    // the window) and its samples counted.
    if (tag == (live | 1) ||
        !slot.tag.compare_exchange_strong(tag, live | 1,
                                          std::memory_order_acq_rel)) {
      if (slot.tag.load(std::memory_order_acquire) != live) {
        dropped_.fetch_add(tally.count, std::memory_order_relaxed);
        return;
      }
    } else {
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum.store(0, std::memory_order_relaxed);
      for (auto& bucket : slot.buckets)
        bucket.store(0, std::memory_order_relaxed);
      slot.tag.store(live, std::memory_order_release);
    }
  }
  slot.count.fetch_add(tally.count, std::memory_order_relaxed);
  slot.sum.fetch_add(tally.sum_nanos, std::memory_order_relaxed);
  for (std::size_t b = 0; b < kBuckets; ++b)
    if (tally.buckets[b] != 0)
      slot.buckets[b].fetch_add(tally.buckets[b], std::memory_order_relaxed);
}

void WindowedHistogram::record(std::uint64_t nanos, std::uint64_t now_ns) {
  LatencyTally tally;
  tally.add(nanos);
  record(tally, now_ns);
}

WindowedHistogram::View WindowedHistogram::view(std::uint64_t now_ns,
                                                std::size_t lookback) const {
  if (lookback == 0 || lookback > num_slots_) lookback = num_slots_;
  const std::uint64_t current = window_index(now_ns);
  View out;
  out.interval_ns = interval_ns_;
  out.windows = lookback;
  for (std::size_t i = 0; i < num_slots_; ++i) {
    const Slot& slot = slots_[i];
    const std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
    if (tag == 0 || (tag & 1) != 0) continue;  // empty or mid-claim
    const std::uint64_t wid = tag >> 1;
    if (wid > current || current - wid >= lookback) continue;
    out.count += slot.count.load(std::memory_order_relaxed);
    out.sum_nanos += slot.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kBuckets; ++b)
      out.buckets[b] += slot.buckets[b].load(std::memory_order_relaxed);
  }
  const double span_seconds =
      static_cast<double>(lookback) * static_cast<double>(interval_ns_) / 1e9;
  out.qps = span_seconds > 0 ? static_cast<double>(out.count) / span_seconds
                             : 0.0;
  out.p50_nanos = percentile_from_buckets(out.buckets, out.count, 0.50);
  out.p95_nanos = percentile_from_buckets(out.buckets, out.count, 0.95);
  out.p99_nanos = percentile_from_buckets(out.buckets, out.count, 0.99);
  return out;
}

}  // namespace pathsep::obs
