// Ctx — the execution context of a running COOL task.
//
// Obtained inside a task body with `auto& c = co_await cool::self();`.
// Provides:
//   * the simulated-memory interface (read/write/work) that drives the DASH
//     model in simulation mode (no-ops under the thread engine);
//   * spawning of parallel functions with affinity hints;
//   * the object-distribution primitives of the paper: migrate() and home();
//   * awaitable synchronisation (lock, group wait, condition wait, yield)
//     declared in core/sync.hpp.
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "sched/affinity.hpp"
#include "topology/machine.hpp"

namespace cool {

class TaskFn;
class TaskGroup;
class Mutex;
class Cond;
struct TaskRecord;

using Affinity = sched::Affinity;

class Ctx {
 public:
  [[nodiscard]] topo::ProcId proc() const noexcept { return proc_; }
  [[nodiscard]] std::uint64_t now() const { return eng_->now(*this); }

  /// Simulated read of [p, p+bytes). The data itself is real — application
  /// code computes real values — this charges the memory model.
  void read(const void* p, std::size_t bytes) {
    eng_->mem_access(*this, reinterpret_cast<std::uint64_t>(p), bytes, false);
  }
  /// Simulated write of [p, p+bytes).
  void write(const void* p, std::size_t bytes) {
    eng_->mem_access(*this, reinterpret_cast<std::uint64_t>(p), bytes, true);
  }
  /// Simulated read-modify-write (read + write of the same range).
  void update(const void* p, std::size_t bytes) {
    read(p, bytes);
    write(p, bytes);
  }
  /// Pure compute: charge `cycles` of processor time.
  void work(std::uint64_t cycles) { eng_->work(*this, cycles); }

  /// Spawn a parallel function with affinity hints, tracked by `group`
  /// (the paper's waitfor scope).
  void spawn(const Affinity& aff, TaskGroup& group, TaskFn&& fn);
  /// Spawn without a group (still tracked for program termination).
  void spawn(const Affinity& aff, TaskFn&& fn);
  /// Spawn a served request: like spawn(), but tags the task with its
  /// request id so the request-trace recorder (--req-trace) can chain its
  /// dispatch spans. `req` must not be sched::kNoRequest. Used by
  /// load::Driver; costs nothing when tracing is off.
  void spawn_request(const Affinity& aff, TaskGroup& group, std::uint32_t req,
                     TaskFn&& fn);

  /// COOL's migrate(ptr, proc[, bytes]): move the pages spanned by the range
  /// to `target`'s local memory (modulo the number of servers). Charges the
  /// migration cost; returns the cycles charged.
  std::uint64_t migrate(const void* p, std::int64_t target, std::size_t bytes);

  /// COOL's home(ptr): the processor whose local memory holds `p`.
  topo::ProcId home(const void* p) {
    return eng_->home(reinterpret_cast<std::uint64_t>(p), proc_);
  }

  /// Awaitables — defined in core/sync.hpp.
  [[nodiscard]] auto lock(Mutex& m);
  [[nodiscard]] auto wait(TaskGroup& g);
  [[nodiscard]] auto wait(Cond& cv, Mutex& m);
  [[nodiscard]] auto yield();

  [[nodiscard]] Engine* engine() const noexcept { return eng_; }
  [[nodiscard]] TaskRecord* record() const noexcept { return rec_; }

  // Engine-internal: contexts are created and rebound by engines only.
  Engine* eng_ = nullptr;
  topo::ProcId proc_ = 0;
  TaskRecord* rec_ = nullptr;
};

}  // namespace cool
