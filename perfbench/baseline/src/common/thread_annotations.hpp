// Clang Thread Safety Analysis capability annotations and the annotated
// host-lock wrappers every subsystem must use.
//
// The macros expand to clang's thread-safety attributes when the compiler
// supports them and to nothing otherwise, so gcc builds are byte-identical
// to a build without this header. Under `-DCOOL_THREAD_SAFETY=ON` (clang
// only) the whole tree compiles with `-Werror=thread-safety`, turning every
// lock-discipline violation — a guarded field touched without its mutex, a
// `*_locked()` helper called from an unlocked path, a lock released twice —
// into a build break instead of a TSan interleaving hope.
//
// The wrappers enforce RAII-only locking *by the type system*, not by
// convention: util::Mutex keeps lock()/unlock() private (friends: MutexLock,
// CondVar), so no caller can manually unlock inside a critical section or
// leak a lock across an early return. The only non-RAII operation exposed is
// try_lock(), whose success must immediately be adopted:
//
//   if (!mu_.try_lock()) return kBusy;          // contention back-off
//   util::MutexLock l(mu_, util::kAdoptLock);   // scoped from here on
//
// That adopt pattern is the one clang's analysis understands precisely: the
// TRY_ACQUIRE(true) on try_lock() makes the capability held on the success
// branch, and the REQUIRES(mu) adopt constructor transfers it to the scope.
//
// These wrappers are for *host* mutexes only — real std::mutex state shared
// between OS threads (ThreadEngine, ServerQueues, balancers, the metrics
// registry). The simulated cool::Mutex/Cond in core/sync.hpp model DASH
// synchronisation inside the single-threaded sim engine and are a different
// animal entirely (they charge simulated cycles and suspend coroutines).
//
// cool-lint (tools/cool-lint) closes the loop: raw std::mutex /
// std::lock_guard / manual .unlock() tokens are banned everywhere outside
// this header, so new code cannot opt out of the annotated wrappers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define COOL_TSA(x) __attribute__((x))
#endif
#endif
#ifndef COOL_TSA
#define COOL_TSA(x)  // not clang (or too old): annotations compile away
#endif

#define COOL_CAPABILITY(x) COOL_TSA(capability(x))
#define COOL_SCOPED_CAPABILITY COOL_TSA(scoped_lockable)
#define COOL_GUARDED_BY(x) COOL_TSA(guarded_by(x))
#define COOL_PT_GUARDED_BY(x) COOL_TSA(pt_guarded_by(x))
#define COOL_ACQUIRE(...) COOL_TSA(acquire_capability(__VA_ARGS__))
#define COOL_RELEASE(...) COOL_TSA(release_capability(__VA_ARGS__))
#define COOL_TRY_ACQUIRE(...) COOL_TSA(try_acquire_capability(__VA_ARGS__))
#define COOL_REQUIRES(...) COOL_TSA(requires_capability(__VA_ARGS__))
#define COOL_EXCLUDES(...) COOL_TSA(locks_excluded(__VA_ARGS__))
#define COOL_ASSERT_CAPABILITY(x) COOL_TSA(assert_capability(x))
#define COOL_RETURN_CAPABILITY(x) COOL_TSA(lock_returned(x))
#define COOL_NO_THREAD_SAFETY_ANALYSIS COOL_TSA(no_thread_safety_analysis)

namespace cool::util {

class MutexLock;
class CondVar;

/// Tag selecting the adopt constructor of MutexLock (after try_lock()).
struct AdoptLockT {
  explicit AdoptLockT() = default;
};
inline constexpr AdoptLockT kAdoptLock{};

/// Annotated std::mutex. lock()/unlock() are private — the only ways to hold
/// the capability are a MutexLock scope or a successful try_lock()
/// immediately adopted by one. CondVar is a friend so wait() can release and
/// reacquire through the scope's underlying handle.
class COOL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Non-blocking acquire; on success the caller holds the capability and
  /// must construct MutexLock(mu, kAdoptLock) before doing anything else.
  [[nodiscard]] bool try_lock() COOL_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex m_;
};

/// RAII critical section over util::Mutex — the only blocking acquire path.
/// Holds a std::unique_lock internally so CondVar::wait can atomically
/// release/reacquire; callers never see the handle.
class COOL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) COOL_ACQUIRE(mu) : l_(mu.m_) {}
  /// Adopt a mutex already held via a successful try_lock().
  MutexLock(Mutex& mu, AdoptLockT) COOL_REQUIRES(mu)
      : l_(mu.m_, std::adopt_lock) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() COOL_RELEASE() {}

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> l_;
};

/// Annotated std::condition_variable companion to util::Mutex. All waits
/// take the MutexLock scope by reference, so the "wait holds the lock"
/// contract is visible to the analysis via COOL_REQUIRES on the caller.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& l) { cv_.wait(l.l_); }

  template <typename Pred>
  void wait(MutexLock& l, Pred pred) {
    cv_.wait(l.l_, std::move(pred));
  }

  /// Timed predicate wait; returns the predicate's final value (false on
  /// timeout), mirroring std::condition_variable::wait_for.
  template <typename Rep, typename Period, typename Pred>
  bool wait_for(MutexLock& l, const std::chrono::duration<Rep, Period>& d,
                Pred pred) {
    return cv_.wait_for(l.l_, d, std::move(pred));
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cool::util
