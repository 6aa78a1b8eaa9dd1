// Glue between the scheduler's Affinity hints and the locality profiler's
// hint taxonomy. Both engines call these at task dispatch so the profiler can
// charge every subsequent memory reference to the running task's hint class
// and affinity set. Header-only: the obs layer cannot include sched headers
// (cool_sched links cool_obs), so the mapping lives here in core, which sees
// both.
#pragma once

#include "obs/profiler.hpp"
#include "sched/affinity.hpp"

namespace cool {

/// The paper's Table 1 class of this hint combination.
inline obs::HintClass hint_class_of(const sched::Affinity& aff) noexcept {
  return obs::classify_hint(aff.has_task(), aff.has_object(),
                            aff.has_processor(), aff.has_multi());
}

/// The implicit affinity-set key: tasks naming the same affinity object form
/// a set (the paper's task-affinity sets; for OBJECT-only hints the shared
/// object still groups the tasks for diagnosis). 0 = no set.
inline std::uint64_t affinity_set_key(const sched::Affinity& aff) noexcept {
  return aff.task_obj != 0 ? aff.task_obj : aff.object_obj;
}

}  // namespace cool
