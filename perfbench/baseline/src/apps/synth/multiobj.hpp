// MultiObj — synthetic workload for the paper's §8 multi-object affinity
// extension ("schedule the task on the processor that has the most objects in
// its local memory, while prefetching the remaining objects").
//
// Each task reads two objects homed on *different* processors: a small one
// (listed first in the affinity, the way a program might order arguments) and
// a large one. The paper's fallback places the task with the first-listed
// (small) object; the size-weighted heuristic places it with the larger one;
// prefetching then hides the fetch of whatever stayed remote.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::multiobj {

enum class Strategy {
  kFirstObject,       ///< Paper's current behaviour: first-listed object wins.
  kWeighted,          ///< §8 heuristic: most bytes local wins.
  kWeightedPrefetch,  ///< + prefetch the remaining objects at dispatch.
};

const char* strategy_name(Strategy s);

struct Config {
  int pairs = 64;            ///< Object pairs (one task set each).
  std::size_t small_kb = 8;  ///< First-listed object.
  std::size_t large_kb = 32; ///< Second-listed object.
  int tasks_per_pair = 4;
  Strategy strategy = Strategy::kWeighted;
};

struct Result {
  apps::RunResult run;
  double checksum = 0.0;
};

sched::Policy policy_for(Strategy s);

Result run(Runtime& rt, const Config& cfg);

}  // namespace cool::apps::multiobj
