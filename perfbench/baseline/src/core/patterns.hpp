// Convenience parallel patterns over the COOL primitives.
//
//   Barrier       — SPLASH-style phase barrier: P parties arrive, everyone
//                   proceeds together; reusable across phases.
//   parallel_for  — spawn a blocked index range into a waitfor group with a
//                   per-block affinity hint.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "core/ctx.hpp"
#include "core/record.hpp"
#include "core/sync.hpp"
#include "core/taskfn.hpp"

namespace cool {

/// Reusable counting barrier. `parties` tasks call `co_await barrier.wait(c)`;
/// the last arrival releases everyone and resets the barrier for the next
/// phase.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {
    COOL_CHECK(parties >= 1, "barrier needs at least one party");
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  struct Awaiter {
    Ctx& c;
    Barrier& b;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(TaskFn::Handle) {
      TaskRecord* rec = c.record();
      // Snapshot EVERYTHING into stack locals before registering on the wait
      // list: the blocking protocol (sync.hpp) forbids touching the record
      // after another thread can legally resume it — and the Awaiter itself
      // (`this`, so `c` and `b`) lives in the coroutine frame, which a
      // concurrent last arrival may pop, unblock, resume, and free while we
      // are still between the unlock below and the observer call.
      Ctx& ctx = c;
      Barrier* const bar = &b;
      Engine* const eng = ctx.engine();
      auto* const so = eng->sync_observer();
      const std::uint64_t seq = rec->desc.seq;
      std::vector<TaskRecord*> wake;
      std::vector<std::uint64_t> wake_seqs;
      bool suspend = false;
      bool last = false;
      {
        util::MutexLock g(bar->m_);
        if (bar->arrived_ + 1 == bar->parties_) {
          // Last arrival: release the phase and reset for reuse.
          last = true;
          bar->arrived_ = 0;
          while (sched::TaskDesc* d = bar->waiters_.pop_front()) {
            TaskRecord* r = TaskRecord::of(d);
            wake.push_back(r);
            wake_seqs.push_back(r->desc.seq);
          }
        } else {
          ++bar->arrived_;
          rec->state = TaskState::kBlocked;
          eng->on_block(ctx);
          bar->waiters_.push_back(&rec->desc);
          suspend = true;
        }
      }
      if (so) {
        // Every arrival is a source edge into the barrier; the last arrival
        // joins the accumulated edges back into each released party
        // (including itself), giving all-to-all ordering across the phase.
        // Waiter seqs were snapshotted under the lock: after unblock() below
        // a released record may already be freed.
        so->on_barrier_arrive(bar, seq);
        if (last) {
          for (const std::uint64_t ws : wake_seqs) {
            so->on_barrier_release(bar, ws);
          }
          so->on_barrier_release(bar, seq);
        }
      }
      // Only the last arrival has wake-ups, and it never registered itself,
      // so `ctx` is still ours to pass.
      for (TaskRecord* r : wake) eng->unblock(r, &ctx);
      return suspend;  // The last arrival continues immediately.
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait(Ctx& c) { return Awaiter{c, *this}; }

  [[nodiscard]] int parties() const noexcept { return parties_; }
  [[nodiscard]] int arrived() const {
    util::MutexLock g(m_);
    return arrived_;
  }

 private:
  mutable util::Mutex m_;
  const int parties_;
  int arrived_ COOL_GUARDED_BY(m_) = 0;
  WaitList waiters_ COOL_GUARDED_BY(m_);
};

/// Spawn tasks covering [lo, hi) in blocks of `grain` into `group`.
/// `make(b, e)` creates the TaskFn for block [b, e); `aff(b, e)` supplies its
/// affinity hint.
///
/// The factory itself may be a capturing lambda, but the TaskFn it returns
/// must come from a coroutine that receives all state as *arguments* — a
/// capturing coroutine-lambda dangles once the lambda temporary dies (the
/// frame stores a pointer to the lambda object, not copies of its captures).
template <typename Factory, typename AffFn>
void parallel_for(Ctx& c, TaskGroup& group, long lo, long hi, long grain,
                  Factory&& make, AffFn&& aff) {
  COOL_CHECK(grain >= 1, "parallel_for: grain must be positive");
  for (long b = lo; b < hi; b += grain) {
    const long e = std::min(hi, b + grain);
    c.spawn(aff(b, e), group, make(b, e));
  }
}

/// parallel_for without affinity hints.
template <typename Factory>
void parallel_for(Ctx& c, TaskGroup& group, long lo, long hi, long grain,
                  Factory&& make) {
  parallel_for(c, group, lo, hi, grain, std::forward<Factory>(make),
               [](long, long) { return Affinity::none(); });
}

}  // namespace cool
