// Data-parallel helper: run fn(i) for i in [0, count) on the process-wide
// shared ThreadPool. The callable is a template parameter (no std::function
// boxing on the hot path), indices are handed out in chunks to keep atomic
// contention negligible when per-item work is tiny, and the calling thread
// participates in the work instead of idling. Exceptions from workers are
// rethrown on the caller (first one wins). Used by the oracle label build
// and the parallel decomposition build, whose per-item work is independent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <thread>

#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace pathsep::util {

/// Default worker count shared by the construction pipeline (parallel_for,
/// DecompositionTree) and the query service (ShardedEngine shards): the
/// PATHSEP_THREADS environment variable when set to a positive integer,
/// otherwise full hardware_concurrency().
inline std::size_t default_threads() {
  if (const char* env = std::getenv("PATHSEP_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0)
      return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs fn(0..count-1) across up to `threads` workers (0 = default_threads(),
/// i.e. hardware concurrency unless PATHSEP_THREADS overrides it). Work is
/// dispatched in index chunks from the shared pool, with the caller draining
/// chunks alongside the helpers. fn must be safe to call concurrently for
/// distinct indices.
///
/// `grain` fixes the chunk size; 0 picks ~8 chunks per participant — coarse
/// enough that the atomic fetch_add is noise, fine enough that an unlucky
/// slow chunk cannot serialize the tail. Pass grain = 1 when per-index cost
/// varies wildly (the label build's node loop: one huge root next to
/// hundreds of leaves) so no small item ever queues behind a big one.
///
/// Nesting is cooperative rather than serialized: a parallel_for inside a
/// pool worker still fans out, and any participant that runs out of chunks
/// while its helpers are unfinished executes queued pool tasks itself
/// (ThreadPool::try_run_one) instead of blocking. That keeps every worker
/// making progress — an inner loop's helpers can never starve behind the
/// outer loop's — and cannot deadlock: a waiter only blocks (briefly, on a
/// timed wait) when the queue is empty, i.e. when all of its helpers are
/// already running on other threads or done.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, std::size_t threads = 0,
                  std::size_t grain = 0) {
  if (count == 0) return;
  if (threads == 0) threads = default_threads();
  threads = std::min(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  ThreadPool& pool = shared_pool();
  const std::size_t helpers = std::min(threads - 1, pool.num_threads());
  const std::size_t chunk =
      grain > 0 ? grain : std::max<std::size_t>(1, count / ((helpers + 1) * 8));

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Local state, so PATHSEP_GUARDED_BY cannot apply (the analysis only
  // tracks members and globals): mutex guards error and live.
  Mutex mutex;
  CondVar done_cv;
  std::exception_ptr error;
  std::size_t live = helpers;

  auto drain = [&]() {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count || failed.load(std::memory_order_relaxed)) return;
      const std::size_t end = std::min(count, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        LockGuard lock(mutex);
        if (!failed.exchange(true)) error = std::current_exception();
        return;
      }
    }
  };

  for (std::size_t h = 0; h < helpers; ++h)
    pool.submit([&] {
      drain();
      LockGuard lock(mutex);
      if (--live == 0) done_cv.notify_all();
    });
  drain();

  // Cooperative wait: our helpers may still sit unstarted in the pool queue
  // (e.g. when this call itself runs on a pool worker), so run queued tasks
  // until all helpers have signalled. When the queue is momentarily empty the
  // timed wait yields the CPU but re-polls, because new sub-tasks may be
  // queued by loops nested inside the tasks we are waiting for.
  for (;;) {
    {
      UniqueLock lock(mutex);
      if (live == 0) break;
      if (pool.queued() == 0 &&
          done_cv.wait_for(lock, std::chrono::milliseconds(1),
                           [&] { return live == 0; }))
        break;
    }
    pool.try_run_one();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace pathsep::util
