// Data-parallel helper: run fn(i) for i in [0, count) on the process-wide
// shared ThreadPool. The callable is a template parameter (no std::function
// boxing on the hot path), indices are handed out in chunks to keep atomic
// contention negligible when per-item work is tiny, and the calling thread
// participates in the work instead of idling. Exceptions from workers are
// rethrown on the caller (first one wins). Used by the decomposition-tree
// build and the oracle label build, whose per-item work is independent.
//
// One process-wide thread budget N bounds all of it: the shared pool holds
// N − 1 workers and the thread calling parallel_for is the N-th. Nested
// loops draw on the same workers, so no nesting depth adds a thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <utility>

#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace pathsep::util {

/// Largest accepted thread budget.
inline constexpr std::size_t kMaxThreads = 1024;

/// The PATHSEP_THREADS environment variable when set, else
/// hardware_concurrency() (capped at kMaxThreads). Throws
/// std::invalid_argument naming the variable when it is set to anything
/// but an integer in [1, kMaxThreads].
std::size_t default_threads();

/// The process-wide thread budget N: the last set_threads() value, else
/// default_threads(). Also ShardedEngine's default shard count.
std::size_t threads();

/// Sets the budget to `n` in [1, kMaxThreads] (std::invalid_argument
/// otherwise) by rebuilding the shared pool with n − 1 workers. Call only
/// while no parallel_for runs, e.g. between two builds being compared.
void set_threads(std::size_t n);

namespace detail {
/// The loop whose chunk this thread is running; nullptr outside any loop.
inline thread_local const ThreadPool::Group* current_loop = nullptr;
}  // namespace detail

/// Runs fn(0..count-1) on the calling thread plus the shared pool's
/// workers; with a budget of 1 (no workers) it runs inline. fn must be safe
/// to call concurrently for distinct indices.
///
/// `grain` fixes the chunk size; 0 picks ~8 chunks per participant — coarse
/// enough that the atomic fetch_add is noise, fine enough that an unlucky
/// slow chunk cannot serialize the tail. Pass grain = 1 when per-index cost
/// varies wildly (the label build's node loop: one huge root next to
/// hundreds of leaves) so no small item ever queues behind a big one.
///
/// Nesting is cooperative: a parallel_for inside fn queues helpers on the
/// same pool, which run when a worker is free. Once every chunk is claimed
/// the caller takes back its helpers that never started and, while the
/// running ones finish, runs only queued tasks of loops nested inside its
/// own. A foreign task could hold this loop's continuation behind unrelated
/// work while the rest of the budget idles. A waiter only waits on running
/// tasks, so no nesting pattern can deadlock.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, std::size_t grain = 0) {
  if (count == 0) return;
  ThreadPool& pool = shared_pool();
  const std::size_t helpers = std::min(pool.num_threads(), count - 1);
  if (helpers == 0) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::size_t chunk =
      grain > 0 ? grain : std::max<std::size_t>(1, count / ((helpers + 1) * 8));

  const ThreadPool::Group group{detail::current_loop};
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Local state, so PATHSEP_GUARDED_BY cannot apply (the analysis only
  // tracks members and globals): mutex guards error and live.
  Mutex mutex;
  CondVar done_cv;
  std::exception_ptr error;
  std::size_t live = helpers;

  auto drain = [&]() {
    const ThreadPool::Group* const outer =
        std::exchange(detail::current_loop, &group);
    for (;;) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count || failed.load(std::memory_order_relaxed)) break;
      const std::size_t end = std::min(count, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        LockGuard lock(mutex);
        if (!failed.exchange(true)) error = std::current_exception();
        break;
      }
    }
    detail::current_loop = outer;
  };

  for (std::size_t h = 0; h < helpers; ++h)
    pool.submit(
        [&] {
          drain();
          LockGuard lock(mutex);
          if (--live == 0) done_cv.notify_all();
        },
        &group);
  drain();

  // Every chunk is claimed: helpers still queued would find no work.
  const std::size_t unstarted = pool.cancel(group);
  {
    LockGuard lock(mutex);
    live -= unstarted;
  }
  // The timed wait re-polls because running helpers may queue nested
  // sub-tasks at any time.
  for (;;) {
    {
      LockGuard lock(mutex);
      if (live == 0) break;
    }
    if (pool.try_run_nested(group)) continue;
    UniqueLock lock(mutex);
    if (done_cv.wait_for(lock, std::chrono::milliseconds(1),
                         [&] { return live == 0; }))
      break;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace pathsep::util
