// Scheduler-level task descriptor.
//
// The runtime (core/) owns richer task records (coroutine frames, groups);
// the scheduler sees only this descriptor: affinity, placement, and an
// intrusive hook so queue operations never allocate (paper §5: enqueue and
// dequeue are O(1) on doubly-linked lists).
//
// Ownership across threads: a TaskDesc is only ever touched by the single
// thread that currently owns it. Ownership transfers exclusively through a
// ServerQueues enqueue/dequeue (or a wait-list push/pop in core/sync.hpp),
// whose mutex publishes every prior write of the descriptor to the next
// owner. Concretely: the placer writes `aff`/`aff_key`/`server`/`stolen`/
// `reserved` before push and never afterwards; the queue stamps `qpos` under
// its own lock on enqueue; a thief writes `stolen` (a
// balancer move writes `moved`) and `server` under the victim's (resp. its
// own) queue lock; the worker that pops reads them freely until it
// re-enqueues or completes the task. No field needs to be atomic under this
// discipline.
#pragma once

#include <cstdint>

#include "common/intrusive_list.hpp"
#include "sched/affinity.hpp"
#include "topology/machine.hpp"

namespace cool::sched {

/// TaskDesc::req sentinel: the task is not a served request. Mirrors
/// obs::RequestTraceRecorder::kNoRequest (the two are static_asserted equal
/// where they meet, in core/sim_engine.cpp).
inline constexpr std::uint32_t kNoRequest = 0xffffffffu;

struct TaskDesc {
  util::ListHook hook;  ///< Links the task into exactly one queue at a time.

  Affinity aff;
  std::uint64_t seq = 0;         ///< Spawn sequence number (determinism/debug).
  std::uint64_t ready_time = 0;  ///< Simulated time the task became runnable.
  topo::ProcId server = 0;       ///< Server queue the task was placed on.
  std::uint64_t aff_key = 0;     ///< Task-affinity set key (0 = no set).
  std::int64_t qpos = 0;         ///< Position stamp in its server's object
                                 ///< queue (ServerQueues-private: written
                                 ///< under the queue lock on enqueue).
  std::uint32_t req = kNoRequest;  ///< Request id for request tracing
                                   ///< (written by the spawner before push,
                                   ///< like aff/aff_key; kNoRequest for every
                                   ///< task that is not a served request).
  bool stolen = false;           ///< Set if acquired by a thief.
  bool reserved = false;         ///< Pre-placed by the Reserve balancer on
                                 ///< the cluster homing its hot data; thieves
                                 ///< from other clusters must leave it alone.
  bool moved = false;            ///< Relocated by a balancer move command.

  /// Opaque pointer back to the owning runtime record (core::TaskRecord).
  void* owner = nullptr;
};

}  // namespace cool::sched
