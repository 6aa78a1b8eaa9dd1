// TaskMix — synthetic workload for microbenchmarking the affinity-hint
// taxonomy (Table 1) and the scheduler's queue structure (§5 ablations).
//
// M page-aligned objects are distributed round-robin; K tasks per object
// each read the whole object. Spawns are *interleaved* across objects
// (object varies fastest), so consecutive arrivals at a server belong to
// different task-affinity sets — exactly the situation the per-server array
// of task-affinity queues exists to untangle: grouping the sets restores
// back-to-back execution and cache reuse; collisions (small arrays) degrade
// toward FIFO interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::taskmix {

enum class Hint {
  kNone,
  kSimple,      ///< affinity(obj) — simple/default affinity.
  kTask,        ///< affinity(obj, TASK)
  kObject,      ///< affinity(obj, OBJECT)
  kTaskObject,  ///< both
  kProcessor,   ///< affinity(i, PROCESSOR)
};

const char* hint_name(Hint h);

struct Config {
  int objects = 64;
  std::size_t obj_kb = 16;
  int tasks_per_obj = 8;
  Hint hint = Hint::kTaskObject;
  bool interleave = true;  ///< false = spawn object-major (naturally grouped).
};

struct Result {
  apps::RunResult run;
  double l1_hit_rate = 0.0;    ///< Fraction of accesses hitting L1.
  double checksum = 0.0;
};

Result run(Runtime& rt, const Config& cfg);

}  // namespace cool::apps::taskmix
