// Clang Thread Safety Analysis annotations + the annotated lock vocabulary.
//
// Every piece of mutex-protected state in the repo is declared with
// PATHSEP_GUARDED_BY, every lock-held helper with PATHSEP_REQUIRES, and every
// mutex is a util::Mutex (never a naked std::mutex — the pathsep_lint
// `naked-mutex` rule enforces that). Under Clang the `tsa` build
// (`cmake --preset tsa`, run by `scripts/check.sh tsa`) compiles with
// -Wthread-safety -Werror=thread-safety-analysis, so the locking contract is
// *proved* on every path at compile time, not just exercised by the TSan
// matrix rows. Under GCC (and any compiler without the attribute system) all
// macros expand to nothing and the wrappers compile down to plain
// std::mutex / std::lock_guard / std::unique_lock — the -Werror release
// leg proves that expansion is clean.
//
// The vocabulary mirrors the attribute names Clang documents
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), spelled with the
// project prefix:
//
//   PATHSEP_GUARDED_BY(m)   on a data member: reads and writes require m.
//   PATHSEP_PT_GUARDED_BY(m) the pointee (not the pointer) requires m.
//   PATHSEP_REQUIRES(m...)  caller must hold every listed capability.
//   PATHSEP_ACQUIRE(m...)   function acquires and does not release.
//   PATHSEP_RELEASE(m...)   function releases a held capability.
//   PATHSEP_TRY_ACQUIRE(b, m...)  acquires iff it returns `b`.
//   PATHSEP_EXCLUDES(m...)  caller must NOT hold (deadlock prevention).
//   PATHSEP_ASSERT_CAPABILITY(m)  runtime-checked "is held here".
//   PATHSEP_RETURN_CAPABILITY(m)  accessor returning a reference to m.
//   PATHSEP_NO_TSA          opt a function out (init/teardown paths only).
//
// PATHSEP_REQUIRES also applies to lambdas (GNU attribute position, between
// the parameter list and the body) — condition-variable predicates that read
// guarded state are annotated this way.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#if defined(__clang__)
#define PATHSEP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PATHSEP_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define PATHSEP_CAPABILITY(x) PATHSEP_THREAD_ANNOTATION(capability(x))
#define PATHSEP_SCOPED_CAPABILITY PATHSEP_THREAD_ANNOTATION(scoped_lockable)
#define PATHSEP_GUARDED_BY(x) PATHSEP_THREAD_ANNOTATION(guarded_by(x))
#define PATHSEP_PT_GUARDED_BY(x) PATHSEP_THREAD_ANNOTATION(pt_guarded_by(x))
#define PATHSEP_REQUIRES(...) \
  PATHSEP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PATHSEP_REQUIRES_SHARED(...) \
  PATHSEP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define PATHSEP_ACQUIRE(...) \
  PATHSEP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PATHSEP_RELEASE(...) \
  PATHSEP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PATHSEP_TRY_ACQUIRE(...) \
  PATHSEP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PATHSEP_EXCLUDES(...) \
  PATHSEP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PATHSEP_ASSERT_CAPABILITY(x) \
  PATHSEP_THREAD_ANNOTATION(assert_capability(x))
#define PATHSEP_RETURN_CAPABILITY(x) PATHSEP_THREAD_ANNOTATION(lock_returned(x))
#define PATHSEP_NO_TSA PATHSEP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pathsep::util {

/// std::mutex with the capability annotation the analysis needs. Zero
/// overhead: every method is an inline forward to the underlying mutex.
class PATHSEP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PATHSEP_ACQUIRE() { m_.lock(); }
  void unlock() PATHSEP_RELEASE() { m_.unlock(); }
  bool try_lock() PATHSEP_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Escape hatch for std APIs that need the real type (CondVar uses it).
  /// Accessing guarded state through a lock taken on native() bypasses the
  /// analysis — always prefer LockGuard / UniqueLock.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// std::lock_guard over util::Mutex, visible to the analysis as a scoped
/// capability: guarded state is accessible exactly for the guard's lifetime.
class PATHSEP_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) PATHSEP_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() PATHSEP_RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// std::unique_lock over util::Mutex: a relockable scoped capability for
/// condition-variable waits and drop-the-lock-around-work loops (ThreadPool's
/// worker loop). Destruction releases iff currently held, as usual.
class PATHSEP_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) PATHSEP_ACQUIRE(mutex)
      : lock_(mutex.native()) {}
  ~UniqueLock() PATHSEP_RELEASE() {}  // lock_ releases iff still owned
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() PATHSEP_ACQUIRE() { lock_.lock(); }
  void unlock() PATHSEP_RELEASE() { lock_.unlock(); }
  bool owns_lock() const { return lock_.owns_lock(); }

  /// The underlying lock, for CondVar. The capability stays held across a
  /// wait from the analysis's point of view, which matches the guarantee:
  /// wait() returns with the lock re-acquired.
  std::unique_lock<std::mutex>& std_lock() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable paired with util::Mutex/UniqueLock. Predicates
/// that read guarded state should be annotated:
///   cv.wait(lock, [&]() PATHSEP_REQUIRES(mutex_) { return ready_; });
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lock) { cv_.wait(lock.std_lock()); }

  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred) {
    cv_.wait(lock.std_lock(), std::move(pred));
  }

  /// Timed predicate wait, for waiters that interleave blocking with useful
  /// work (parallel_for's cooperative wait runs its loop's nested pool tasks
  /// between timeouts). Returns the predicate's value on wake.
  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(UniqueLock& lock,
                const std::chrono::duration<Rep, Period>& timeout,
                Predicate pred) {
    return cv_.wait_for(lock.std_lock(), timeout, std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace pathsep::util
