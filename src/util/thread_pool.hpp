// Persistent worker thread pool behind the construction pipeline.
//
// A task takes microseconds and thread creation takes tens of them, so
// ThreadPool keeps its workers alive and feeds them through a
// mutex-protected task queue: per-task dispatch cost is one lock + one
// condition-variable signal. The process-wide instance behind
// `shared_pool()` backs util::parallel_for.
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
  /// Tag shared by the tasks of one util::parallel_for call. `parent` is the
  /// loop whose chunk the submitting thread was running (nullptr at top
  /// level), so the groups of nested loops form a tree.
  struct Group {
    const Group* parent = nullptr;
  };

  /// Starts `threads` workers; zero is valid (queued tasks then run only
  /// through try_run_nested). If a worker fails to start, the ones already
  /// running are joined before the error propagates.
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task tagged with `group`; wakes one idle worker.
  void submit(std::function<void()> task, const Group* group = nullptr)
      PATHSEP_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle() PATHSEP_EXCLUDES(mutex_);

  /// Removes the queued (not yet started) tasks of `group` and returns how
  /// many there were.
  std::size_t cancel(const Group& group) PATHSEP_EXCLUDES(mutex_);

  /// Runs, on the calling thread, the oldest queued task whose group is
  /// `group` or nested inside it; returns false when there is none. This is
  /// how a waiting parallel_for helps with its own loop's nested work and
  /// with nothing else.
  bool try_run_nested(const Group& group) PATHSEP_EXCLUDES(mutex_);

  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks currently queued (not yet picked up); for tests and metrics.
  std::size_t queued() const PATHSEP_EXCLUDES(mutex_);

  /// Deep invariant audit: the active task count is within the worker count
  /// plus cooperative runners, no queued task is null, and a stopped pool
  /// accepts no new work. Fails via PATHSEP_ASSERT; see
  /// check/audit_service.hpp.
  void audit() const PATHSEP_EXCLUDES(mutex_);

 private:
  struct Task {
    std::function<void()> fn;
    const Group* group = nullptr;
  };

  void worker_loop() PATHSEP_EXCLUDES(mutex_);
  void stop_and_join() PATHSEP_EXCLUDES(mutex_);
  void audit_locked() const PATHSEP_REQUIRES(mutex_);  ///< audit() body

  mutable Mutex mutex_;
  CondVar work_cv_;  ///< signals workers: task or stop
  CondVar idle_cv_;  ///< signals wait_idle: all drained
  std::deque<Task> queue_ PATHSEP_GUARDED_BY(mutex_);
  std::size_t active_ PATHSEP_GUARDED_BY(mutex_) = 0;  ///< running a task
  /// Threads currently inside try_run_nested: each runs a task on top of
  /// the one it may already be counted for, raising the active ceiling.
  std::size_t cooperative_ PATHSEP_GUARDED_BY(mutex_) = 0;
  bool stop_ PATHSEP_GUARDED_BY(mutex_) = false;
  /// Written only by the constructor, joined only by stop_and_join; sized
  /// reads (num_threads) are safe without mutex_ after construction.
  std::vector<std::thread> workers_;
};

/// The process-wide pool backing util::parallel_for: util::threads() − 1
/// workers, created at first use and rebuilt by util::set_threads().
ThreadPool& shared_pool();

}  // namespace pathsep::util
