#pragma once

#include <cstdint>

#include "bench.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

struct SchedHarness {
  double ns_per_place = 0.0;
  double ns_per_pop = 0.0;
  double ns_per_steal = 0.0;           ///< At queue depth N.
  double steal_cost_growth_4x = 0.0;   ///< Per-steal cost at 4N over N.
  std::uint64_t placed = 0;            ///< Descriptors placed in all phases.
  std::uint64_t wrong = 0;             ///< ... not acquired exactly once.
};

SchedHarness run_sched_harness(const cool::topo::MachineConfig& m,
                               const cool::sched::Policy& pol, Spans* spans);

}  // namespace perfbench
