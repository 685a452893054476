// Low-overhead hierarchical trace spans.
//
// A ScopedSpan brackets a region of work; completed spans are appended to a
// preallocated per-thread buffer (no lock contention, no allocation on the
// recording path) and later stitched into a parent/child tree by span id.
// Nesting is tracked by a thread-local "current span" that each ScopedSpan
// pushes and pops; work handed to util::ThreadPool workers stays attached to
// its logical parent by capturing `current_span()` before submit and
// installing it on the worker with a SpanParentGuard — this is how the
// parallel decomposition build produces one coherent trace even though its
// nodes are processed by many threads in scheduler-dependent order.
//
// Tracing is off by default; enable it per process with PATHSEP_TRACE=1 or
// per test with set_trace_enabled(true). When off, a ScopedSpan costs one
// relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pathsep::obs {

/// True when spans are being recorded (PATHSEP_TRACE=1 at startup, or
/// set_trace_enabled(true) later).
bool trace_enabled();
void set_trace_enabled(bool on);

/// One completed span. Times are nanoseconds since the process trace epoch
/// (the first use of the trace clock), so records from different threads
/// share a timeline.
struct SpanRecord {
  const char* name = nullptr;  ///< static string (span call sites pass literals)
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< recording thread's ordinal
};

/// Nanoseconds since the trace epoch (monotonic, via util::Timer).
std::uint64_t trace_now_ns();

/// RAII span. Construction (with tracing on) assigns a fresh id, remembers
/// the ambient parent and becomes the thread's current span; destruction
/// appends the completed record to the thread's buffer. Constructed with
/// tracing off it is inert and destruction is free.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;  ///< 0 = inert (tracing was off at entry)
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// The calling thread's ambient span id (0 when none). Capture this before
/// handing work to another thread.
std::uint64_t current_span();

/// Tail-based exemplar commit: appends a completed span measured by the
/// caller (start/end from trace_now_ns()) to this thread's buffer and
/// returns its id. This is how the serving layer samples by outcome rather
/// than up front — it times every query anyway, decides *after* the fact
/// that this one landed in the tail (slow-log admission), and only then
/// materializes the span, so tracing a high-QPS service records exemplar
/// spans for tail queries instead of one span per query. The ambient
/// current_span() is recorded as the parent. Returns 0 (and records
/// nothing) when tracing is off.
std::uint64_t commit_span(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns);

/// Installs `parent` as the calling thread's ambient span for the guard's
/// lifetime — the cross-thread half of span stitching.
class SpanParentGuard {
 public:
  explicit SpanParentGuard(std::uint64_t parent);
  ~SpanParentGuard();
  SpanParentGuard(const SpanParentGuard&) = delete;
  SpanParentGuard& operator=(const SpanParentGuard&) = delete;

 private:
  std::uint64_t saved_;
};

/// Steals every completed span recorded so far (all threads, including
/// buffers of threads that have exited). Buffers keep their capacity, so
/// recording stays allocation-free afterwards.
std::vector<SpanRecord> drain_spans();

/// Spans lost because a thread's buffer was full (drain more often, or
/// raise the buffer capacity at compile time).
std::uint64_t dropped_spans();

// ---- Stitching ------------------------------------------------------------

struct TraceNode {
  SpanRecord span;
  std::vector<std::size_t> children;  ///< indices into TraceTree::nodes
};

/// Parent/child trace forest. Spans whose parent was never recorded (e.g.
/// it was still open at drain time, or tracing was toggled mid-build)
/// surface as roots rather than disappearing.
struct TraceTree {
  std::vector<TraceNode> nodes;
  std::vector<std::size_t> roots;  ///< indices into nodes
};

/// Builds the tree; nodes and sibling lists are ordered by start time, then
/// id, so the output is stable for a given set of records.
TraceTree stitch_spans(std::vector<SpanRecord> records);

/// Indented "name  span-time  [thread]" rendering of the forest.
std::string format_trace(const TraceTree& tree);

}  // namespace pathsep::obs

/// Opens a span covering the rest of the enclosing scope.
#define PATHSEP_SPAN(name)                                         \
  ::pathsep::obs::ScopedSpan PATHSEP_OBS_CAT(pathsep_span_,        \
                                             __COUNTER__) {        \
    name                                                           \
  }
