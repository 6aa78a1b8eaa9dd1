// Affinity hints — the paper's Table 1, as a value type.
//
// COOL attaches an optional affinity block to a parallel function; the hints
// only influence scheduling, never semantics. The hierarchy:
//
//   (default)                 schedule where the base object lives
//   affinity(obj)             simple affinity: as default, keyed on `obj`
//   affinity(obj, TASK)       task affinity: tasks naming the same `obj` form
//                             a task-affinity set, run back-to-back for cache
//                             reuse, and may be stolen as a set
//   affinity(obj, OBJECT)     object affinity: collocate the task with the
//                             memory that homes `obj`; preferably not stolen
//   affinity(n, PROCESSOR)    run on server n mod P
//
// TASK and OBJECT compose (Gaussian elimination: TASK on the source column,
// OBJECT on the destination column).
#pragma once

#include <cstdint>
#include <initializer_list>

namespace cool::sched {

struct Affinity {
  /// Object whose cached footprint we want to reuse (TASK affinity); 0 = none.
  std::uint64_t task_obj = 0;
  /// Object with whose home memory the task should be collocated (OBJECT or
  /// simple/default affinity); 0 = none.
  std::uint64_t object_obj = 0;
  /// Explicit server (PROCESSOR affinity); negative = none. Taken modulo the
  /// number of servers, as in the paper.
  std::int64_t proc_hint = -1;

  [[nodiscard]] bool has_task() const noexcept { return task_obj != 0; }
  [[nodiscard]] bool has_object() const noexcept { return object_obj != 0; }
  [[nodiscard]] bool has_processor() const noexcept { return proc_hint >= 0; }
  [[nodiscard]] bool is_none() const noexcept {
    return !has_task() && !has_object() && !has_processor();
  }

  static Affinity none() noexcept { return {}; }

  /// Simple affinity / default (base-object) affinity.
  static Affinity object(const void* obj) noexcept {
    Affinity a;
    a.object_obj = reinterpret_cast<std::uint64_t>(obj);
    return a;
  }

  /// TASK affinity only: cache locality on `obj`.
  static Affinity task(const void* obj) noexcept {
    Affinity a;
    a.task_obj = reinterpret_cast<std::uint64_t>(obj);
    return a;
  }

  /// TASK + OBJECT: cache locality on `t`, memory locality on `o`.
  static Affinity task_object(const void* t, const void* o) noexcept {
    Affinity a;
    a.task_obj = reinterpret_cast<std::uint64_t>(t);
    a.object_obj = reinterpret_cast<std::uint64_t>(o);
    return a;
  }

  /// PROCESSOR affinity: schedule on server `n mod P`.
  static Affinity processor(std::int64_t n) noexcept {
    Affinity a;
    a.proc_hint = n;
    return a;
  }

  /// PROCESSOR + TASK: pin to a server, and group into an affinity set there
  /// (LocusRoute's per-region scheduling).
  static Affinity processor_task(std::int64_t n, const void* t) noexcept {
    Affinity a;
    a.proc_hint = n;
    a.task_obj = reinterpret_cast<std::uint64_t>(t);
    return a;
  }

  // --- multi-object affinity (paper §4.1 / §8 "ongoing research") ----------
  //
  // "If affinity is specified for multiple objects then we currently schedule
  //  the task based on the first. There are obvious better heuristics that
  //  would determine the relative importance of objects based on their size
  //  and schedule the task on the processor that has the most objects in its
  //  local memory, while prefetching the remaining objects."
  //
  // We implement that heuristic: a task may name up to kMaxObjects objects
  // with sizes; the scheduler places it on the server homing the most bytes
  // (policy-controlled; falls back to first-object placement when disabled),
  // and the simulation engine can prefetch the non-local ones at dispatch.

  struct ObjRef {
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
  };
  static constexpr int kMaxObjects = 4;
  ObjRef objs[kMaxObjects];
  int n_objs = 0;

  [[nodiscard]] bool has_multi() const noexcept { return n_objs > 0; }

  /// Multi-object OBJECT affinity. The first object is also recorded as the
  /// plain object hint (the paper's fallback).
  static Affinity objects(std::initializer_list<ObjRef> list) noexcept {
    Affinity a;
    for (const ObjRef& o : list) {
      if (a.n_objs >= kMaxObjects || o.addr == 0) break;
      a.objs[a.n_objs++] = o;
    }
    if (a.n_objs > 0) a.object_obj = a.objs[0].addr;
    return a;
  }

  /// Convenience: reference an object by pointer + byte size.
  static ObjRef ref(const void* p, std::uint64_t bytes) noexcept {
    return ObjRef{reinterpret_cast<std::uint64_t>(p), bytes};
  }
};

}  // namespace cool::sched
