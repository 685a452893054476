// Persistent worker thread pool behind the construction pipeline.
//
// A task takes microseconds and thread creation takes tens of them, so
// ThreadPool keeps its workers alive and feeds them through a
// mutex-protected task queue: per-task dispatch cost is one lock + one
// condition-variable signal. The process-wide instance behind
// `shared_pool()` backs util::parallel_for and the parallel decomposition
// build.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace pathsep::util {

/// Fixed-size pool of persistent workers draining a FIFO task queue.
/// Tasks must not throw (an escaping exception terminates the process, as
/// with std::thread); parallel helpers catch and forward exceptions
/// themselves.
class ThreadPool {
 public:
  /// `threads` = 0 uses util::default_threads() (hardware concurrency,
  /// overridable via the PATHSEP_THREADS environment variable).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; wakes one idle worker.
  void submit(std::function<void()> task) PATHSEP_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle() PATHSEP_EXCLUDES(mutex_);

  /// Pops one queued task and runs it on the calling thread; returns false
  /// when the queue is empty. This is the cooperative-nesting primitive:
  /// a parallel helper that has exhausted its own work but must wait for
  /// sub-tasks still in the queue executes them itself instead of blocking,
  /// so nested fan-out (a big node's inner portal loop inside the node-level
  /// loop) can never deadlock the pool. The task runs with in_worker() true,
  /// exactly as it would on a pool thread.
  bool try_run_one() PATHSEP_EXCLUDES(mutex_);

  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks currently queued (not yet picked up); for tests and metrics.
  std::size_t queued() const PATHSEP_EXCLUDES(mutex_);

  /// True when the calling thread is a worker of ANY ThreadPool. Parallel
  /// helpers that block on their own sub-tasks (parallel_for, the
  /// decomposition build) check this and degrade to serial execution
  /// instead, so nested parallelism can never deadlock the pool.
  static bool in_worker();

  /// Deep invariant audit: workers exist, active task count is within the
  /// worker count, no queued task is null, and a stopped pool accepts no new
  /// work. Fails via PATHSEP_ASSERT; see check/audit_service.hpp.
  void audit() const PATHSEP_EXCLUDES(mutex_);

 private:
  void worker_loop() PATHSEP_EXCLUDES(mutex_);
  void audit_locked() const PATHSEP_REQUIRES(mutex_);  ///< audit() body

  mutable Mutex mutex_;
  CondVar work_cv_;  ///< signals workers: task or stop
  CondVar idle_cv_;  ///< signals wait_idle: all drained
  std::deque<std::function<void()>> queue_ PATHSEP_GUARDED_BY(mutex_);
  std::size_t active_ PATHSEP_GUARDED_BY(mutex_) = 0;  ///< running a task
  /// Non-worker threads currently inside try_run_one (they raise the
  /// legitimate active-task ceiling above the worker count).
  std::size_t cooperative_ PATHSEP_GUARDED_BY(mutex_) = 0;
  bool stop_ PATHSEP_GUARDED_BY(mutex_) = false;
  /// Written only by the constructor, joined only by the destructor; sized
  /// reads (num_threads) are safe without mutex_ after construction.
  std::vector<std::thread> workers_;
};

/// Lazily-created process-wide pool backing util::parallel_for and the
/// parallel decomposition build. Sized to default_threads() at first use
/// (but never below 2, so explicit thread requests still get real
/// concurrency on small machines); callers cap their own usage per call, so
/// a PATHSEP_THREADS=1 run stays serial without consulting the pool.
ThreadPool& shared_pool();

}  // namespace pathsep::util
