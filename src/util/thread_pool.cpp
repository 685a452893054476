#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "util/parallel.hpp"

namespace pathsep::util {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  try {
    for (std::size_t t = 0; t < threads; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Destroying a joinable std::thread terminates the process: stop and
    // join the workers that did start, then report the failure.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task, const Group* group) {
  // A null task would crash the worker that dequeues it, far from the
  // submitter's stack — reject at the boundary instead.
  PATHSEP_ASSERT(task != nullptr, "ThreadPool::submit called with a null task");
  {
    LockGuard lock(mutex_);
    PATHSEP_ASSERT(!stop_, "ThreadPool::submit called on a stopped pool");
    queue_.push_back({std::move(task), group});
    PATHSEP_AUDIT(audit_locked());
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mutex_);
  idle_cv_.wait(lock, [this]() PATHSEP_REQUIRES(mutex_) {
    return queue_.empty() && active_ == 0;
  });
}

std::size_t ThreadPool::cancel(const Group& group) {
  LockGuard lock(mutex_);
  const std::size_t removed = std::erase_if(
      queue_, [&](const Task& t) { return t.group == &group; });
  if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  return removed;
}

bool ThreadPool::try_run_nested(const Group& group) {
  Task task;
  {
    LockGuard lock(mutex_);
    const auto nested = [&](const Task& t) {
      for (const Group* g = t.group; g != nullptr; g = g->parent)
        if (g == &group) return true;
      return false;
    };
    const auto it = std::find_if(queue_.begin(), queue_.end(), nested);
    if (it == queue_.end()) return false;
    task = std::move(*it);
    queue_.erase(it);
    ++active_;
    ++cooperative_;
  }
  task.fn();
  {
    LockGuard lock(mutex_);
    --active_;
    --cooperative_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
  return true;
}

std::size_t ThreadPool::queued() const {
  LockGuard lock(mutex_);
  return queue_.size();
}

void ThreadPool::audit_locked() const {
  PATHSEP_ASSERT(active_ <= workers_.size() + cooperative_,
                 "thread pool claims ", active_, " active tasks with only ",
                 workers_.size(), " workers and ", cooperative_,
                 " cooperative runners");
  for (std::size_t i = 0; i < queue_.size(); ++i)
    PATHSEP_ASSERT(queue_[i].fn != nullptr, "thread pool queue slot ", i,
                   " holds a null task");
}

void ThreadPool::audit() const {
  LockGuard lock(mutex_);
  audit_locked();
}

void ThreadPool::worker_loop() {
  UniqueLock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this]() PATHSEP_REQUIRES(mutex_) {
      return stop_ || !queue_.empty();
    });
    // Drain remaining tasks even when stopping: submitted work completes.
    if (queue_.empty()) return;  // only reachable when stop_ is set
    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task.fn();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

// ------------------------------------------------------ the thread budget

namespace {
Mutex pool_mutex;
/// The budget is this pool's worker count plus one (the calling thread).
std::unique_ptr<ThreadPool> pool PATHSEP_GUARDED_BY(pool_mutex);
}  // namespace

std::size_t default_threads() {
  const char* env = std::getenv("PATHSEP_THREADS");
  if (env == nullptr)
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                   kMaxThreads);
  char* end = nullptr;
  const unsigned long long n = std::strtoull(env, &end, 10);
  if (*env < '0' || *env > '9' || *end != '\0' || n == 0 || n > kMaxThreads)
    throw std::invalid_argument("PATHSEP_THREADS must be an integer in [1, " +
                                std::to_string(kMaxThreads) + "], got '" +
                                env + "'");
  return static_cast<std::size_t>(n);
}

std::size_t threads() { return shared_pool().num_threads() + 1; }

void set_threads(std::size_t n) {
  if (n == 0 || n > kMaxThreads)
    throw std::invalid_argument("thread budget must be in [1, " +
                                std::to_string(kMaxThreads) + "], got " +
                                std::to_string(n));
  LockGuard lock(pool_mutex);
  pool.reset();  // the old workers exit before the new ones start
  pool = std::make_unique<ThreadPool>(n - 1);
}

ThreadPool& shared_pool() {
  LockGuard lock(pool_mutex);
  if (!pool) pool = std::make_unique<ThreadPool>(default_threads() - 1);
  return *pool;
}

}  // namespace pathsep::util
