// Exemplar slow-log: a bounded, lock-striped record of the slowest queries.
//
// The serving hot path measures every unit of up to 16 queries
// (service/answer_path.hpp); the slow-log keeps only the tail, one entry per
// admitted unit: its costliest query, with the unit's mean latency.
// Admission is a single relaxed atomic load (the current floor — the
// smallest latency the log would still keep), so the fast path for a
// non-tail unit is one compare-and-branch. An admitted entry locks one of
// a handful of stripes, replaces that stripe's minimum, and refreshes the
// floor; contention is bounded by how often queries actually land in the
// tail, not by throughput.
//
// Striping makes "the K slowest" approximate at the margin: each stripe
// retains its own K/S slowest, so an entry can be evicted from a full
// stripe while a smaller one survives elsewhere. Every retained entry is
// still >= the floor at its admission time, and snapshot() returns the
// exact merged top-K of what was retained. The trace exemplar rides along:
// when tracing is on, the serving layer commits a span for admitted queries
// only (tail-based sampling — see obs/trace.hpp commit_span) and stores its
// id in the entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/thread_annotations.hpp"

namespace pathsep::obs {

/// One tail query with its full cost attribution.
struct SlowQuery {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  /// The mean over the query's timed unit (service::AnswerPath::kUnit
  /// queries at most), not the query's own time.
  std::uint64_t latency_ns = 0;
  std::uint64_t when_ns = 0;  ///< window_now_ns() when its unit completed
  std::uint32_t entries_scanned = 0;  ///< label connections the sweep read
  std::int32_t win_node = -1;   ///< decomposition node of the winning portal
  std::int32_t win_level = -1;  ///< its depth; -1 = no finite answer
  /// How the query was answered; mirrors the per-level answer counters.
  enum class Outcome : std::uint8_t { kOracle, kCached, kSelf, kUnreachable };
  Outcome outcome = Outcome::kOracle;
  std::uint64_t span_id = 0;  ///< exemplar trace span (0 = tracing was off)
};

class SlowLog {
 public:
  /// Keeps ~`capacity` entries across `stripes` locks. capacity == 0
  /// disables the log: admission_floor() is UINT64_MAX so record() is never
  /// reached from a well-behaved caller, and record() itself is a no-op.
  explicit SlowLog(std::size_t capacity = 64, std::size_t stripes = 8);

  /// Smallest latency worth offering to record(); callers skip the lock for
  /// anything faster. 0 until the log fills.
  std::uint64_t admission_floor() const {
    return floor_.load(std::memory_order_relaxed);
  }

  /// Offers one query; kept iff it beats the owning stripe's minimum (or
  /// the stripe has room). Thread-safe; never allocates.
  void record(const SlowQuery& query);

  /// Merged entries, slowest first. Takes every stripe lock briefly.
  std::vector<SlowQuery> snapshot() const;

  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Stripe {
    mutable util::Mutex mutex;
    /// Unordered; the minimum is found by linear scan (stripes are small).
    std::vector<SlowQuery> entries PATHSEP_GUARDED_BY(mutex);
    /// This stripe's minimum latency once full, else 0.
    std::atomic<std::uint64_t> floor{0};
  };

  void refresh_floor();

  std::size_t capacity_ = 0;
  std::size_t num_stripes_ = 0;
  std::size_t per_stripe_ = 0;
  std::unique_ptr<Stripe[]> stripes_;
  std::atomic<std::uint64_t> floor_{UINT64_MAX};  ///< min over stripe floors
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::size_t> next_stripe_{0};  ///< round-robin stripe choice
};

}  // namespace pathsep::obs
