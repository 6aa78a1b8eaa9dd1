// AdaptiveEngine — the online loop that closes profiler → advisor → scheduler.
//
// The offline story was: run, dump the locality profile, read the advisor's
// prose, edit the source to add hints or migrate() calls, rerun. This engine
// runs the same advisor rules *during* the run and applies their decisions
// through four actuators, no source changes required:
//
//   1. memory   — MemorySystem::migrate(): rehome an object next to its
//      dominant user (migrate-object rule), or spread a scattered-access
//      object page-round-robin across the machine (distribute-object rule);
//   2. hints    — a per-object promotion table in the scheduler: tasks with
//      plain OBJECT affinity on a hot shared object are promoted to
//      TASK+OBJECT, so they queue on one server and run back-to-back
//      (task-affinity rule), exactly the hint gauss adds by hand;
//   3. steal policy — flip Policy::steal_object_tasks / steal_whole_sets and
//      cap the steal-scan length when the steal-storm / idle-imbalance /
//      whole-set rules fire;
//   4. balancer policy (opt-in, AdaptPolicy::enable_balancer) — switch
//      Policy::balancer from the default Stealing balancer to the Average
//      balancer when a queue pile-up persists *after* the steal-policy
//      relief, and back once the pile-up drains. Switches route through
//      Scheduler::adapt_policy, which rebuilds the balancer tree at the
//      epoch boundary; a dedicated BalancerGovernor (dwell + lifetime cap)
//      paces them because a swap is the most disruptive actuator.
//
// Epochs are task-count (or sim-cycle) driven; each epoch diffs the profiler
// and metric snapshots against the previous epoch so rules judge *recent*
// behaviour, not the whole past. Every actuator firing passes the hysteresis
// governor and is appended to a decision log that benches export (JSON +
// Chrome trace). Under the sim engine all of this is called from the single
// simulation thread, so decisions are deterministic: two runs of the same
// program produce identical logs.
//
// The objective is fixed per run (throughput, or a latency target), and the
// rest of the engine's mode is one explicit `Control` value: who owns the
// steal relief, who switched the balancer, and which data-plane actuators
// the serving-mode memory gate lets through. Each actuator has one code path.
//
// The engine talks to the runtime through `Hooks` (plain std::functions), so
// it depends on no concrete engine type and unit tests can drive it with
// synthetic snapshots.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "adaptive/governor.hpp"
#include "adaptive/policy.hpp"
#include "obs/advisor_rules.hpp"
#include "obs/latency_hist.hpp"
#include "obs/request_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sched/scheduler.hpp"
#include "topology/machine.hpp"

namespace cool::adaptive {

/// One actuator firing. `cycle` is the dispatching processor's clock when the
/// epoch ran; `cost_cycles` is what the actuator charged that processor.
struct Decision {
  std::uint64_t epoch = 0;
  std::uint64_t cycle = 0;
  obs::AdviceKind rule = obs::AdviceKind::kMigrateObject;
  std::string subject;
  std::string action;
  std::uint64_t cost_cycles = 0;
};

/// Runtime services the engine needs, as callables so the engine stays
/// independent of the concrete runtime/engine types. `profile`, `metrics`,
/// `mutate_policy` and `policy` are required (checked at construction);
/// without `migrate` or `promote` the matching actuator never fires.
struct Hooks {
  std::function<obs::ProfileSnapshot()> profile;  ///< Cumulative profile.
  std::function<obs::Snapshot()> metrics;         ///< Cumulative metrics.
  /// Migrate [addr, addr+bytes) (profiler address space) to new_home;
  /// returns the cycles to charge to `caller`. `now` is the caller's clock
  /// (for trace timestamps).
  std::function<std::uint64_t(topo::ProcId caller, std::uint64_t addr,
                              std::uint64_t bytes, topo::ProcId new_home,
                              std::uint64_t now)>
      migrate;
  /// Enable/disable TASK-affinity promotion for the object whose profiler
  /// set key is `set_key`.
  std::function<void(std::uint64_t set_key, bool on)> promote;
  /// Mutate the live scheduler policy (sim: single-threaded, safe).
  std::function<void(const std::function<void(sched::Policy&)>&)> mutate_policy;
  /// Read the current scheduler policy.
  std::function<sched::Policy()> policy;
};

class AdaptiveEngine {
 public:
  AdaptiveEngine(const topo::MachineConfig& machine, AdaptPolicy policy,
                 Hooks hooks);

  /// Notify one task dispatch on `proc` whose clock reads `now`. When the
  /// notification closes an epoch the engine evaluates and acts; the return
  /// value is the cycles to charge to `proc` (0 between epochs).
  std::uint64_t on_task_dispatch(topo::ProcId proc, std::uint64_t now);

  /// Attach (or detach, with nullptr) the latency sensor feeding the
  /// AdaptPolicy::latency_target_cycles objective: a snapshot of the
  /// serving layer's *cumulative* per-request latency histogram (the
  /// load::Driver's). Each epoch diffs consecutive snapshots, so the engine
  /// judges the epoch's own p99, not the run-so-far's. Sim-thread only.
  void set_latency_sensor(std::function<obs::LatencyHist()> sensor) {
    latency_sensor_ = std::move(sensor);
  }

  /// Attach (or detach) the latency *decomposition* sensor: cumulative
  /// per-component histograms (queue_wait / service / memory_stall /
  /// steal_penalty) from the request-trace recorder, diffed per epoch like
  /// the latency sensor. With it attached, the latency objective escalates
  /// by *dominant component*: a queue-wait-dominated overshoot climbs the
  /// balancer ladder as before, but a memory-stall-dominated one routes to
  /// the migration actuators instead — moving requests around cannot fix
  /// remote data, rehoming the data can. Without it, every overshoot climbs
  /// the balancer/steal ladder.
  void set_breakdown_sensor(std::function<obs::BreakdownSample()> sensor) {
    breakdown_sensor_ = std::move(sensor);
  }

  [[nodiscard]] const std::vector<Decision>& log() const noexcept {
    return log_;
  }
  /// Deterministic JSON array of decisions (the bench-record export).
  [[nodiscard]] std::string log_json() const;
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epoch_; }
  [[nodiscard]] const AdaptPolicy& policy() const noexcept { return pol_; }
  [[nodiscard]] const Governor& governor() const noexcept { return gov_; }
  [[nodiscard]] const BalancerGovernor& balancer_governor() const noexcept {
    return bal_gov_;
  }

 private:
  /// What the run is judged by. Fixed per run: a nonzero
  /// AdaptPolicy::latency_target_cycles selects kLatency.
  enum class Objective : std::uint8_t { kThroughput, kLatency };
  /// Serving-mode gate for the data-plane actuators, opened by a
  /// memory-stall-dominated overshoot and closed by recovery. kMigrate lets
  /// kMigrateObject and kDistributeObject through; kDistribute (saturated
  /// channels: rehoming onto one memory only moves the queueing) lets only
  /// kDistributeObject through.
  enum class MemGate : std::uint8_t { kClosed, kMigrate, kDistribute };

  /// Everything the engine remembers about the modes it put the scheduler
  /// in. Each actuator reverts only what the engine itself switched, so a
  /// user-chosen setting is never "reverted". DESIGN.md §11 tabulates which
  /// actuators each objective and gate state allows (see allows()).
  struct Control {
    /// Engaged while steal_object_tasks is on because the engine opened it;
    /// counts the rehomes since then (the throughput revert waits for the
    /// rehome wave to dry up).
    std::optional<std::uint64_t> steal_relief;
    /// The balancer is Average because the engine switched it there.
    bool balancer_switched = false;
    MemGate gate = MemGate::kClosed;
    /// The gate's first opening is logged; later re-openings are not.
    bool gate_logged = false;
  };

  std::uint64_t run_epoch(topo::ProcId proc, std::uint64_t now);
  /// Serving path: compare this epoch's p99 against the policy target and
  /// climb/descend the relief ladder or open the memory gate. Shares the
  /// per-epoch action budget via `actions`.
  void latency_objective(const obs::Snapshot& dm, std::uint64_t now,
                         std::uint32_t& actions);
  /// Throughput path: revert the steal relief and the balancer switch once
  /// their cause is gone.
  void throughput_reverts(const obs::Snapshot& dm,
                          const std::optional<std::uint64_t>& rehomes_before,
                          std::uint64_t now);
  /// Apply one finding through its actuator; returns cycles charged and
  /// appends to log_ iff it acted.
  std::uint64_t act(const obs::advisor::Finding& f, topo::ProcId proc,
                    std::uint64_t now);
  /// Whether the objective and the memory gate let `kind` act at all.
  [[nodiscard]] bool allows(obs::AdviceKind kind) const;

  // The actuators, one path each. The flips return false when the governor
  // refuses them.
  bool set_steal_relief(bool on);
  bool switch_balancer(sched::BalancerKind to);
  std::uint64_t rehome(const obs::advisor::Finding& f, topo::ProcId proc,
                       std::uint64_t now);
  void record(const obs::advisor::Finding& f, std::string action,
              std::uint64_t now, std::uint64_t cost);

  topo::MachineConfig machine_;
  AdaptPolicy pol_;
  Hooks hooks_;
  Governor gov_;
  BalancerGovernor bal_gov_;
  const Objective objective_;
  Control ctl_;
  std::uint64_t epoch_ = 0;
  std::uint64_t tasks_since_ = 0;
  std::uint64_t last_epoch_cycle_ = 0;
  /// Cycles the closing epoch covered, on a monotonic clock: dispatch times
  /// come from whichever processor's clock closed the epoch, and under
  /// run-to-suspension those clocks lag each other, so raw differences can
  /// wrap. Track the high-water dispatch time instead and diff that.
  std::uint64_t clock_hwm_ = 0;
  std::uint64_t last_epoch_hwm_ = 0;
  std::uint64_t last_epoch_elapsed_ = 0;
  /// Rotating rehome targets for sub-page objects (migrate, distribute).
  std::uint32_t migrate_cursor_ = 0;
  std::uint32_t distribute_cursor_ = 0;
  /// Objects/sets already acted on — migrations and promotions are one-shot
  /// per subject, so a cold-cache echo of the rule can't thrash the object
  /// back and forth.
  std::set<std::string> done_;
  obs::ProfileSnapshot prev_profile_;
  obs::Snapshot prev_metrics_;
  /// Latency sensor (cumulative request histogram) and breakdown sensor
  /// (cumulative component histograms), each with the previous epoch's
  /// snapshot for deltas.
  std::function<obs::LatencyHist()> latency_sensor_;
  obs::LatencyHist prev_latency_;
  std::function<obs::BreakdownSample()> breakdown_sensor_;
  obs::BreakdownSample prev_breakdown_;
  std::vector<Decision> log_;
};

}  // namespace cool::adaptive
