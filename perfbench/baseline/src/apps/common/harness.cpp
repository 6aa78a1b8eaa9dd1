#include "apps/common/harness.hpp"

namespace cool::apps {

RunResult collect(const Runtime& rt, double checksum) {
  RunResult r;
  r.sim_cycles = rt.sim_time();
  r.tasks = rt.tasks_completed();
  if (const auto* mon = rt.monitor()) r.mem = mon->total();
  r.sched = rt.sched_stats();
  r.obs = rt.obs_snapshot();
  r.checksum = checksum;
  if (const auto* rd = rt.race_detector()) r.races = rd->total();
  if (r.sched.spawned > 0) {
    r.placement_adherence =
        1.0 - static_cast<double>(r.sched.tasks_stolen) /
                  static_cast<double>(r.sched.spawned);
  }
  return r;
}

std::vector<std::uint32_t> proc_series(std::uint32_t max_procs) {
  std::vector<std::uint32_t> ps;
  for (std::uint32_t p : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 48u, 64u}) {
    if (p <= max_procs) ps.push_back(p);
  }
  if (ps.empty() || ps.back() != max_procs) ps.push_back(max_procs);
  return ps;
}

}  // namespace cool::apps
