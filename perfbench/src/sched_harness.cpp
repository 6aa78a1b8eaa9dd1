// Scheduler harness: drives sched::Scheduler::place/acquire directly, with
// the workload's machine and policy, on unhinted task descriptors placed by
// processor 0 — the fork-join shape whose steals scan the spawner's object
// queue. Times placement, local pops and steals, and the per-steal cost at
// queue depth 4N over depth N, which is 1 for an O(1) steal and about 4 for
// today's O(queue) scan.
#include "sched_harness.hpp"

#include <string>
#include <vector>

namespace perfbench {

using namespace cool;

namespace {

struct Phase {
  double place_s = 0.0;
  double acquire_s = 0.0;
  std::uint64_t wrong = 0;  ///< Descriptors not acquired exactly once.
};

/// Place `n` unhinted tasks from processor 0, then acquire them all: by
/// processor 0 itself (`steal` false) or round-robin by every other
/// processor (`steal` true).
Phase run_phase(const topo::MachineConfig& m, const sched::Policy& pol,
                std::size_t n, bool steal, Spans* spans,
                const std::string& name) {
  ScopedSpan span(spans, "harness." + name);
  sched::Scheduler sch(m, pol,
                       [](std::uint64_t, topo::ProcId) { return topo::ProcId{0}; });
  std::vector<sched::TaskDesc> tasks(n);
  std::vector<std::uint32_t> got(n, 0);
  Phase ph;
  Clock::time_point t0 = Clock::now();
  for (sched::TaskDesc& t : tasks) sch.place(&t, 0);
  ph.place_s = seconds_between(t0, Clock::now());

  const std::uint32_t procs = m.n_procs;
  std::uint32_t thief = 1;
  std::size_t misses = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n && misses < n; ++i) {
    topo::ProcId p = 0;
    if (steal && procs > 1) {
      p = thief;
      thief = thief + 1 < procs ? thief + 1 : 1;
    }
    const sched::Scheduler::Acquired a = sch.acquire(p);
    if (a.task == nullptr || a.stolen != (p != 0)) {
      ++misses;
      continue;
    }
    const auto idx = static_cast<std::size_t>(a.task - tasks.data());
    if (idx < n) ++got[idx];
  }
  ph.acquire_s = seconds_between(t0, Clock::now());
  for (const std::uint32_t g : got) {
    if (g != 1) ++ph.wrong;
  }
  return ph;
}

}  // namespace

SchedHarness run_sched_harness(const topo::MachineConfig& m,
                               const sched::Policy& pol, Spans* spans) {
  constexpr std::size_t kDepth = 4096;
  // The depth-N phases take about a millisecond: repeat them and take
  // medians. The depth-4N steal phase is long enough on its own.
  constexpr int kReps = 5;
  std::vector<double> place;
  std::vector<double> pop;
  std::vector<double> steal;
  SchedHarness h;
  for (int i = 0; i < kReps; ++i) {
    const Phase p = run_phase(m, pol, kDepth, false, spans, "pop");
    const Phase s = run_phase(m, pol, kDepth, true, spans, "steal_n");
    place.push_back(p.place_s);
    place.push_back(s.place_s);
    pop.push_back(p.acquire_s);
    steal.push_back(s.acquire_s);
    h.wrong += p.wrong + s.wrong;
  }
  const Phase steal4 = run_phase(m, pol, 4 * kDepth, true, spans, "steal_4n");
  h.wrong += steal4.wrong;
  h.placed = (2 * kReps + 4) * kDepth;
  const double per_steal = median(steal) / kDepth;
  h.ns_per_place = 1e9 * median(place) / kDepth;
  h.ns_per_pop = 1e9 * median(pop) / kDepth;
  h.ns_per_steal = 1e9 * per_steal;
  h.steal_cost_growth_4x = (steal4.acquire_s / (4.0 * kDepth)) / per_steal;
  return h;
}

}  // namespace perfbench
