// SyncObserver — a passive tap on the runtime's synchronization operations.
//
// The race detector needs to see every happens-before edge the COOL runtime
// creates: task spawn, mutex release→acquire chains, condition signal→wake,
// task-group completion→waitfor, and barrier phases. Rather than teach
// core/sync about vector clocks, the sync primitives emit these narrow
// callbacks when an observer is attached to the engine (Engine::sync_observer
// is null otherwise, and nothing beyond a pointer test happens).
//
// Tasks are identified by their spawn sequence number (TaskDesc::seq, unique
// per run); sync objects by their host address, which is stable for the
// object's lifetime. Address reuse after destruction can therefore alias two
// unrelated sync objects — see race_detector.hpp for why that is benign for
// groups and at worst hides (never fabricates) a race for mutexes.
//
// Emission contract: events are delivered in the order the simulated/real
// operations take effect. For every edge the "source" event (release, signal,
// group-done, barrier-arrive) is emitted before the matching "sink" event
// (acquire, wake, group-wait, barrier-release). Only the deterministic sim
// engine attaches an observer today, so callbacks run single-threaded.
#pragma once

#include <cstdint>

#include "obs/profiler.hpp"
#include "topology/machine.hpp"

namespace cool::analysis {

class SyncObserver {
 public:
  /// "No affinity set" sentinel for on_task_run (matches the profiler's:
  /// simulated address 0 is a legitimate arena offset).
  static constexpr std::uint64_t kNoSet = ~0ull;

  virtual ~SyncObserver() = default;

  /// `child` was spawned by `parent` (0 = spawned from outside any task,
  /// i.e. the root task of a run).
  virtual void on_spawn(std::uint64_t parent, std::uint64_t child) = 0;

  /// `proc` is about to resume `task`; `hint`/`set_key` describe its
  /// affinity (set_key is the simulated address of the affinity object,
  /// kNoSet when the task has none). Fires on every resume, so the observer
  /// always knows which task each processor's accesses belong to.
  virtual void on_task_run(topo::ProcId proc, std::uint64_t task,
                           obs::HintClass hint, std::uint64_t set_key) = 0;

  /// `task` released / acquired the Mutex at `mu`. A FIFO handoff emits the
  /// release and then the next holder's acquire.
  virtual void on_release(const void* mu, std::uint64_t task) = 0;
  virtual void on_acquire(const void* mu, std::uint64_t task) = 0;

  /// `task` signalled/broadcast the Cond at `cv` (emitted only when at least
  /// one waiter is woken); each woken waiter then emits on_cond_wake.
  virtual void on_cond_signal(const void* cv, std::uint64_t task) = 0;
  virtual void on_cond_wake(const void* cv, std::uint64_t task) = 0;

  /// A member `task` of the TaskGroup at `grp` completed; a waiter `task`
  /// passed the group's waitfor (either woken by the last completion or
  /// finding the group already empty).
  virtual void on_group_done(const void* grp, std::uint64_t task) = 0;
  virtual void on_group_wait(const void* grp, std::uint64_t task) = 0;

  /// `task` arrived at the Barrier at `bar`; on the phase's last arrival
  /// every participant (wakees and the last arriver itself) emits
  /// on_barrier_release, after all arrivals of the phase.
  virtual void on_barrier_arrive(const void* bar, std::uint64_t task) = 0;
  virtual void on_barrier_release(const void* bar, std::uint64_t task) = 0;
};

}  // namespace cool::analysis
