#include "adaptive/engine.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace cool::adaptive {
namespace {

std::string fmt(const char* format, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

void sub_stats(obs::AccessStats& a, const obs::AccessStats& b) {
  const auto sub = [](std::uint64_t& x, std::uint64_t y) {
    x = x >= y ? x - y : 0;
  };
  sub(a.reads, b.reads);
  sub(a.writes, b.writes);
  for (int i = 0; i < mem::kNumServices; ++i) sub(a.serviced[i], b.serviced[i]);
  sub(a.invals, b.invals);
  sub(a.stall_cycles, b.stall_cycles);
  sub(a.remote_stall_cycles, b.remote_stall_cycles);
}

void sub_vec(std::vector<std::uint64_t>& a,
             const std::vector<std::uint64_t>& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) a[i] = a[i] >= b[i] ? a[i] - b[i] : 0;
}

obs::advisor::Finding scheduler_finding(obs::AdviceKind kind) {
  obs::advisor::Finding f;
  f.kind = kind;
  f.subject = "scheduler";
  return f;
}

}  // namespace

AdaptiveEngine::AdaptiveEngine(const topo::MachineConfig& machine,
                               AdaptPolicy policy, Hooks hooks)
    : machine_(machine),
      pol_(policy),
      hooks_(std::move(hooks)),
      gov_(policy.confirm_epochs, policy.cooldown_epochs),
      bal_gov_(policy.confirm_epochs, policy.cooldown_epochs,
               policy.balancer_dwell_epochs, policy.balancer_max_switches),
      objective_(policy.latency_target_cycles != 0 ? Objective::kLatency
                                                   : Objective::kThroughput) {
  COOL_CHECK(hooks_.profile && hooks_.metrics && hooks_.mutate_policy &&
                 hooks_.policy,
             "adaptive engine needs the profile, metrics, policy and "
             "mutate_policy hooks");
}

std::uint64_t AdaptiveEngine::on_task_dispatch(topo::ProcId proc,
                                               std::uint64_t now) {
  ++tasks_since_;
  const bool by_tasks = pol_.epoch_tasks > 0 && tasks_since_ >= pol_.epoch_tasks;
  const bool by_cycles =
      pol_.epoch_cycles > 0 && now - last_epoch_cycle_ >= pol_.epoch_cycles;
  if (now > clock_hwm_) clock_hwm_ = now;
  if (!by_tasks && !by_cycles) return 0;
  tasks_since_ = 0;
  last_epoch_elapsed_ = clock_hwm_ - last_epoch_hwm_;
  last_epoch_hwm_ = clock_hwm_;
  last_epoch_cycle_ = now;
  return run_epoch(proc, now);
}

std::uint64_t AdaptiveEngine::run_epoch(topo::ProcId proc, std::uint64_t now) {
  ++epoch_;
  obs::ProfileSnapshot cur = hooks_.profile();
  obs::Snapshot met = hooks_.metrics();

  // Per-epoch deltas: subtract the previous cumulative snapshots so the
  // rules judge this epoch's behaviour, not the run's whole history. The
  // set `procs` lists stay cumulative (a set that ever spread has lost its
  // reuse; there is no meaningful per-epoch subtraction of a set of ids).
  obs::ProfileSnapshot delta = cur;
  {
    std::unordered_map<std::uint64_t, const obs::ProfileSnapshot::ObjectRow*>
        prev_obj;
    for (const auto& o : prev_profile_.objects) prev_obj[o.addr] = &o;
    for (auto& o : delta.objects) {
      auto it = prev_obj.find(o.addr);
      if (it == prev_obj.end()) continue;
      sub_stats(o.s, it->second->s);
      sub_vec(o.miss_from_cluster, it->second->miss_from_cluster);
      sub_vec(o.miss_home_cluster, it->second->miss_home_cluster);
    }
    std::unordered_map<std::uint64_t, const obs::ProfileSnapshot::SetRow*>
        prev_set;
    for (const auto& s : prev_profile_.sets) prev_set[s.key] = &s;
    for (auto& s : delta.sets) {
      auto it = prev_set.find(s.key);
      if (it == prev_set.end()) continue;
      sub_stats(s.s, it->second->s);
      s.tasks = s.tasks >= it->second->tasks ? s.tasks - it->second->tasks : 0;
      s.stolen =
          s.stolen >= it->second->stolen ? s.stolen - it->second->stolen : 0;
    }
    sub_stats(delta.total, prev_profile_.total);
  }
  obs::Snapshot dm = met.diff(prev_metrics_);
  // Queue depths and the channel count are gauges, not counters: subtracting
  // the previous instantaneous value is meaningless, so carry them through.
  for (const char* g :
       {"sched.queue.now", "sched.queue.max_now", "mem.chan.count"}) {
    auto it = met.values.find(g);
    if (it != met.values.end()) dm.values[it->first] = it->second;
  }
  prev_profile_ = std::move(cur);
  prev_metrics_ = std::move(met);

  const std::vector<obs::advisor::Finding> findings =
      obs::advisor::evaluate(delta, dm, pol_.rules);

  std::uint64_t cost = pol_.epoch_cost_cycles;
  std::uint32_t actions = 0;
  const std::optional<std::uint64_t> rehomes_before = ctl_.steal_relief;
  // The latency objective runs before the throughput findings so a serving
  // workload's tail-latency relief is first in line for the action budget.
  if (objective_ == Objective::kLatency) {
    latency_objective(dm, now + cost, actions);
  }
  for (const obs::advisor::Finding& f : findings) {
    if (actions >= pol_.max_actions_per_epoch) break;
    const std::size_t before = log_.size();
    cost += act(f, proc, now + cost);
    if (log_.size() > before) ++actions;
  }
  if (objective_ == Objective::kThroughput) {
    throughput_reverts(dm, rehomes_before, now + cost);
  }
  return cost;
}

void AdaptiveEngine::throughput_reverts(
    const obs::Snapshot& dm, const std::optional<std::uint64_t>& rehomes_before,
    std::uint64_t now) {
  std::uint64_t queued_max = 0;
  if (auto it = dm.values.find("sched.queue.max_now"); it != dm.values.end()) {
    queued_max = it->second;
  }
  const bool drained = queued_max * 2 < machine_.n_procs;

  // Revert the steal-storm relief once rehoming has spread the data: with
  // the hot objects now homed next to (or across) their users, OBJECT tasks
  // are placed on useful processors and stealing them only trades locality
  // away. Wait for the rehome wave to dry up (an epoch with rehomes done but
  // none new) — reverting mid-wave strands the still-unmoved objects' tasks
  // on the old home — AND for the pile-up itself to drain: programs whose
  // hot set evolves (gauss's elimination front) pause rehoming for an epoch
  // while a deep queue still sits on the old home. The shared governor key
  // keeps enable/revert at least one cooldown apart; if imbalance returns,
  // the storm rule re-enables.
  if (ctl_.steal_relief && *ctl_.steal_relief > 0 &&
      ctl_.steal_relief == rehomes_before && drained &&
      set_steal_relief(false)) {
    record(scheduler_finding(obs::AdviceKind::kStealStorm),
           "steal_object_tasks=off (data spread)", now, 0);
  }

  // Revert the balancer escalation once the pile-up has drained: the Average
  // balancer's periodic equalisation is pure overhead on a balanced machine,
  // and reverting restores the Stealing balancer's byte-identical default
  // probe order. The BalancerGovernor's dwell keeps the switch and its revert
  // at least one dwell window apart, and the revert consumes one of the
  // lifetime switch slots like any other swap. (Serving mode never takes
  // this path: there a shallow queue means the escalation is *working*, and
  // reverting would reopen the very pile-up it is celebrating.)
  if (ctl_.balancer_switched && drained &&
      hooks_.policy().balancer == sched::BalancerKind::kAverage &&
      switch_balancer(sched::BalancerKind::kStealing)) {
    record(scheduler_finding(obs::AdviceKind::kIdleImbalance),
           "balancer=stealing (pile-up drained)", now, 0);
  }
}

void AdaptiveEngine::latency_objective(const obs::Snapshot& dm,
                                       std::uint64_t now,
                                       std::uint32_t& actions) {
  if (!latency_sensor_) return;
  const obs::LatencyHist cur = latency_sensor_();
  const obs::LatencyHist delta = cur.diff(prev_latency_);
  prev_latency_ = cur;
  // Decomposition sensor: diff the component histograms every epoch the
  // objective runs (consecutive snapshots must pair up, so this happens
  // before any early return below) and judge which component built this
  // epoch's latency mass.
  bool have_breakdown = false;
  bool mem_dominated = false;
  if (breakdown_sensor_) {
    obs::BreakdownSample bcur = breakdown_sensor_();
    const obs::LatencyHist d_queue =
        bcur.queue_wait.diff(prev_breakdown_.queue_wait);
    const obs::LatencyHist d_mem =
        bcur.memory_stall.diff(prev_breakdown_.memory_stall);
    prev_breakdown_ = std::move(bcur);
    have_breakdown = true;
    mem_dominated = d_mem.sum() > d_queue.sum();
  }
  // Channel-saturation sensor (needs a channel backend; the flat model
  // exports no mem.chan.* gauges and leaves this false). Peak per-channel
  // busy share of this epoch: the hottest channel's busy-cycle delta over
  // the cycles the epoch covered. Peak, not mean — a skewed workload
  // saturates the hot cluster's channels while the other fourteen idle, and
  // it is the hot channel the tail queues behind. Distinguishes *why*
  // memory stalls dominate: latency (remote distance — migrate toward the
  // user) vs bandwidth (saturated channel — only spreading across more
  // channels helps).
  bool bandwidth_bound = false;
  std::uint64_t saturation_pct = 0;
  if (last_epoch_elapsed_ > 0 &&
      dm.values.find("mem.chan.count") != dm.values.end()) {
    std::uint64_t peak = 0;
    for (const auto& [key, v] : dm.values) {
      // Per-channel counters are "mem.chan.<i>.busy_cycles"; the aggregate
      // ("mem.chan.busy_cycles") and other families don't match.
      if (key.size() > 21 && key.compare(0, 9, "mem.chan.") == 0 &&
          key.compare(key.size() - 12, 12, ".busy_cycles") == 0 &&
          key != "mem.chan.busy_cycles") {
        peak = std::max(peak, v);
      }
    }
    // The channel services requests on its own arrival-time clock, which can
    // run slightly ahead of the dispatch high-water clock; clamp so the
    // logged share reads as a fraction of the epoch.
    const double sat = std::min(1.0, static_cast<double>(peak) /
                                         static_cast<double>(last_epoch_elapsed_));
    saturation_pct = static_cast<std::uint64_t>(100.0 * sat + 0.5);
    bandwidth_bound = sat >= pol_.bandwidth_saturation_frac;
  }
  // Too few completions to trust a tail estimate: an epoch that completed
  // almost nothing while requests pile up will trip the ladder next epoch,
  // when the queued requests complete with their queueing delay on record.
  if (delta.count() < pol_.latency_min_samples) return;
  const std::uint64_t p99 = delta.quantile(0.99);
  const std::uint64_t target = pol_.latency_target_cycles;

  obs::advisor::Finding f;
  f.kind = obs::AdviceKind::kLatencyTarget;
  f.subject = "requests";
  if (auto it = dm.values.find("sched.queue.max_now"); it != dm.values.end()) {
    f.queued_max = it->second;
  }

  if (p99 > target) {
    if (actions >= pol_.max_actions_per_epoch) return;
    // Dominant-component routing (breakdown sensor attached): when this
    // epoch's latency mass is memory stall rather than queue wait, the
    // ladder below is the wrong medicine — balancer moves and pin-break
    // steals relocate *requests*, but the tail is built from remote-data
    // service time, which moving requests around can only spread, not
    // shrink. Instead open the memory gate (allows() then lets the
    // migration actuators through) so the advisor's data-plane rules rehome
    // the remote-hot objects. The gate is sticky across overshoot epochs:
    // the rehome wave itself stalls serving processors and invalidates
    // cached lines, which manufactures transient queue-dominated epochs —
    // flipping to the balancer mid-wave would abandon the data fix for
    // request churn. Only recovery (p99 back at or under target) closes it.
    // Bandwidth refinement: when the channels themselves are saturated,
    // migrating the hot object toward its users concentrates *more* fills on
    // the destination cluster's channels — the opposite of relief. Route to
    // the distribute actuator alone (spread pages across channels) instead
    // of the full migrate/distribute pair. The choice is made when the gate
    // opens and is sticky like the gate itself: the rehome wave perturbs
    // both sensors mid-flight. Only the run's first opening is logged.
    if (have_breakdown && mem_dominated && ctl_.gate == MemGate::kClosed) {
      ctl_.gate = bandwidth_bound ? MemGate::kDistribute : MemGate::kMigrate;
    }
    if (ctl_.gate != MemGate::kClosed) {
      if (!ctl_.gate_logged) {
        ctl_.gate_logged = true;
        if (ctl_.gate == MemGate::kDistribute) {
          f.kind = obs::AdviceKind::kBandwidthBound;
          record(f,
                 fmt("escalate=distribute (bandwidth-bound, hot channel "
                     "%" PRIu64 "%% busy, p99 %" PRIu64 " > target %" PRIu64
                     ")",
                     saturation_pct, p99, target),
                 now, 0);
        } else {
          record(f,
                 fmt("escalate=migrate (memory-stall dominated, p99 %" PRIu64
                     " > target %" PRIu64 ")",
                     p99, target),
                 now, 0);
        }
        ++actions;
      }
      return;
    }
    const sched::Policy p = hooks_.policy();
    if (!p.steal_enabled) return;
    // Rung 1: escalate to the Average balancer's batched moves (opt-in, and
    // only from the Stealing default: a user-chosen balancer stays). Moves
    // are the *gentle* relief for a hot-key tail: they relocate only the
    // over-average part of the overlong queue, youngest first, and leave
    // every other server's placement untouched.
    if (pol_.enable_balancer &&
        p.balancer == sched::BalancerKind::kStealing) {
      if (!switch_balancer(sched::BalancerKind::kAverage)) return;
      record(f,
             fmt("balancer=average (p99 %" PRIu64 " > target %" PRIu64 ")",
                 p99, target),
             now, 0);
      ++actions;
      return;
    }
    // Rung 2: the tail is still over target (or the balancer actuator is
    // off) — open pin-break stealing so every idle probe can take OBJECT-
    // pinned requests. This is the aggressive last resort, not the first
    // move: stolen requests run their critical sections with remote data,
    // which inflates monitor hold times on exactly the hot keys the tail
    // is queued behind. Give rung 1 a full balancer dwell first: right
    // after the switch the completing backlog still carries its
    // pre-escalation queueing delay, so the epoch p99 lags the fix.
    if (ctl_.balancer_switched &&
        epoch_ < bal_gov_.last_switch_epoch() + pol_.balancer_dwell_epochs) {
      return;
    }
    if (!p.steal_object_tasks && set_steal_relief(true)) {
      record(f,
             fmt("steal_object_tasks=on (p99 %" PRIu64 " > target %" PRIu64
                 ")",
                 p99, target),
             now, 0);
      ++actions;
    }
    return;
  }

  // Back at or under target: close the memory gate. The one-shot migrations
  // already applied stay in place, but further data-plane churn must be
  // justified by a fresh memory-dominated overshoot.
  ctl_.gate = MemGate::kClosed;

  // Relief revert: only the steal flag comes back down, and only with real
  // headroom (p99 at or under half the target), so the ladder cannot
  // oscillate on a tail that hovers at the target. The balancer escalation
  // is deliberately *not* reverted while the objective is active: a good
  // epoch p99 after the switch means the escalation is working, and
  // switching back mid-trace lets the hot-key queue rebuild for every
  // arrival still to come. Pin-break stealing, by contrast, has a real
  // ongoing cost (remote critical sections) worth shedding once the tail
  // clears.
  if (ctl_.steal_relief && p99 * 2 <= target &&
      hooks_.policy().steal_object_tasks && set_steal_relief(false)) {
    record(f, fmt("steal_object_tasks=off (p99 %" PRIu64 " <= target/2)", p99),
           now, 0);
  }
}

bool AdaptiveEngine::allows(obs::AdviceKind kind) const {
  // Serving mode: a latency target states the user's objective, and every
  // throughput-heuristic actuator was tuned for batch programs with no
  // notion of a tail. Data-plane churn (migrating or re-homing the hot
  // object mid-trace, promoting its requests into back-to-back sets) and
  // pin-break stealing all *raise* a hot-key p99 — the latency ladder is the
  // only actuator that evaluates its actions against the stated objective,
  // so the rest stand down. The steal-storm scan cap stays available:
  // bounding failed scans is objective-neutral. The memory gate reopens the
  // migration actuators while the overshoot is memory-stall dominated.
  if (objective_ == Objective::kThroughput ||
      kind == obs::AdviceKind::kStealStorm) {
    return true;
  }
  if (kind == obs::AdviceKind::kDistributeObject) {
    return ctl_.gate != MemGate::kClosed;
  }
  return kind == obs::AdviceKind::kMigrateObject &&
         ctl_.gate == MemGate::kMigrate;
}

std::uint64_t AdaptiveEngine::act(const obs::advisor::Finding& f,
                                  topo::ProcId proc, std::uint64_t now) {
  if (!allows(f.kind)) return 0;
  switch (f.kind) {
    case obs::AdviceKind::kMigrateObject:
    case obs::AdviceKind::kDistributeObject:
      return rehome(f, proc, now);
    case obs::AdviceKind::kTaskAffinity: {
      if (!pol_.enable_hints || !hooks_.promote) return 0;
      const std::string done_key = "promote:" + f.subject;
      if (done_.count(done_key) != 0) return 0;
      if (!gov_.admit(done_key, epoch_)) return 0;
      hooks_.promote(f.set_key, true);
      done_.insert(done_key);
      record(f, "promote to TASK affinity", now, 0);
      return 0;
    }
    case obs::AdviceKind::kWholeSetStealing: {
      if (!pol_.enable_steal_policy) return 0;
      const sched::Policy p = hooks_.policy();
      if (!p.steal_enabled || p.steal_whole_sets) return 0;
      if (!gov_.admit("policy:steal_whole_sets", epoch_)) return 0;
      hooks_.mutate_policy(
          [](sched::Policy& pol) { pol.steal_whole_sets = true; });
      record(f, "steal_whole_sets=on", now, 0);
      return 0;
    }
    case obs::AdviceKind::kIdleImbalance: {
      // Idleness alone is too noisy to act on online: barrier-structured
      // programs (ocean) show large per-epoch idle fractions between phases
      // with nothing wrong. Act only on the pile-up signature — processors
      // idle while a deep run queue sits on a single server. A balanced
      // spawn burst puts at most a task or two on each queue, so a deepest
      // queue holding half the machine's worth of work means the work
      // exists but cannot spread.
      if (!pol_.enable_steal_policy) return 0;
      if (f.queued_max * 2 < machine_.n_procs) return 0;
      const sched::Policy p = hooks_.policy();
      if (!p.steal_enabled) return 0;
      if (!p.steal_object_tasks) {
        if (set_steal_relief(true)) {
          record(f, "steal_object_tasks=on (queue pile-up)", now, 0);
        }
        return 0;
      }
      // Escalation: the steal-policy relief is already on and the pile-up is
      // still here — on-demand stealing drains one task per idle probe, which
      // cannot keep up with a producer that refills the deep queue. Switch
      // the balancer to Average, whose kMoveTasks commands pull a queue down
      // to the level mean in one grab. Only escalate from the Stealing
      // default: a user-selected Average/Reserve balancer is not ours to
      // replace.
      if (!pol_.enable_balancer || p.balancer != sched::BalancerKind::kStealing) {
        return 0;
      }
      if (switch_balancer(sched::BalancerKind::kAverage)) {
        record(f, "balancer=average (pile-up persists)", now, 0);
      }
      return 0;
    }
    case obs::AdviceKind::kStealStorm: {
      if (!pol_.enable_steal_policy) return 0;
      const sched::Policy p = hooks_.policy();
      if (!p.steal_enabled) return 0;
      // In serving mode the latency ladder owns the steal knob — fall
      // through to the objective-neutral scan cap.
      if (!p.steal_object_tasks && objective_ == Objective::kThroughput) {
        // Idle processors scan but find nothing stealable: the usual cause
        // is every task carrying OBJECT affinity (default-steal-exempt).
        // Letting object tasks be stolen is the least intrusive relief.
        if (set_steal_relief(true)) record(f, "steal_object_tasks=on", now, 0);
        return 0;
      }
      if (p.max_steal_scan == 0) {
        // Still storming with stealing wide open: bound the scan length so
        // idle processors stop sweeping every queue on the machine.
        if (!gov_.admit("policy:max_steal_scan", epoch_)) return 0;
        const std::uint32_t cap = machine_.procs_per_cluster;
        hooks_.mutate_policy(
            [cap](sched::Policy& pol) { pol.max_steal_scan = cap; });
        record(f, fmt("max_steal_scan=%u", cap), now, 0);
      }
      return 0;
    }
    case obs::AdviceKind::kLatencyTarget:
      // Never emitted by the advisor: the latency objective acts directly
      // (latency_objective), outside the findings loop.
      return 0;
    case obs::AdviceKind::kBandwidthBound:
      // Diagnostic, not an actuator: the latency objective owns the
      // bandwidth escalation (it opens the memory gate for the distribute
      // actuator), and offline the advisor renders it as advice.
      return 0;
  }
  return 0;
}

bool AdaptiveEngine::set_steal_relief(bool on) {
  // Each objective paces its own relief under its own governor key.
  const char* key = objective_ == Objective::kLatency
                        ? "latency:steal_object_tasks"
                        : "policy:steal_object_tasks";
  if (!gov_.admit(key, epoch_)) return false;
  hooks_.mutate_policy([on](sched::Policy& p) { p.steal_object_tasks = on; });
  ctl_.steal_relief =
      on ? std::optional<std::uint64_t>(0) : std::optional<std::uint64_t>();
  return true;
}

bool AdaptiveEngine::switch_balancer(sched::BalancerKind to) {
  const bool away = to == sched::BalancerKind::kAverage;
  if (!bal_gov_.admit(away ? "balancer:average" : "balancer:stealing",
                      epoch_)) {
    return false;
  }
  hooks_.mutate_policy([to](sched::Policy& p) { p.balancer = to; });
  ctl_.balancer_switched = away;
  return true;
}

std::uint64_t AdaptiveEngine::rehome(const obs::advisor::Finding& f,
                                     topo::ProcId proc, std::uint64_t now) {
  const bool migrate = f.kind == obs::AdviceKind::kMigrateObject;
  if (!hooks_.migrate) return 0;
  const std::string done_key = "object:" + f.subject;
  if (done_.count(done_key) != 0) return 0;
  if (!gov_.admit((migrate ? "migrate:" : "distribute:") + f.subject, epoch_)) {
    return 0;
  }
  // Migrate targets the dominant user cluster's processors, distribute the
  // whole machine. Multi-page objects spread their pages over the targets
  // (next to the users without creating a hotspot, or round-robin like a
  // hand `distribute()` call); sub-page objects move whole, each to the
  // next target in rotation, so a family of small hot objects spreads out.
  const std::uint32_t n = machine_.n_procs;
  const std::uint32_t base =
      migrate ? static_cast<topo::ProcId>(f.user_cluster *
                                          machine_.procs_per_cluster)
              : 0;
  const std::uint32_t span =
      migrate ? std::min(n - base, machine_.procs_per_cluster) : n;
  std::uint32_t& cursor = migrate ? migrate_cursor_ : distribute_cursor_;
  // Policy::reserve_exclude_mask marks processors whose cycles belong to
  // non-queue work (a serving front-end) — homing a hot object there makes
  // it permanently remote to every server. Skip them, unless the mask
  // excludes every target.
  const std::uint64_t excl = hooks_.policy().reserve_exclude_mask;
  const auto pick = [&](std::uint32_t idx) -> topo::ProcId {
    for (std::uint32_t k = 0; k < span; ++k) {
      const std::uint32_t cand = base + (idx + k) % span;
      if (cand < n && ((excl >> cand) & 1) == 0) return cand;
    }
    return base + idx % span;
  };
  const std::uint64_t pb = machine_.page_bytes;
  const std::uint64_t pages = (f.obj_bytes + pb - 1) / pb;
  std::uint64_t c = 0;
  std::string action;
  if (pages > 1 && base < n) {
    for (std::uint64_t i = 0; i < pages; ++i) {
      const std::uint64_t off = i * pb;
      const std::uint64_t len = off + pb <= f.obj_bytes ? pb : f.obj_bytes - off;
      c += hooks_.migrate(proc, f.obj_addr + off, len,
                          pick(static_cast<std::uint32_t>(i)), now + c);
    }
    action = migrate ? fmt("migrate %" PRIu64 " pages into cluster %zu", pages,
                           f.user_cluster)
                     : fmt("distribute %" PRIu64 " pages round-robin", pages);
  } else {
    // A user cluster past the machine (a profile wider than the machine)
    // falls back to the last processor.
    const topo::ProcId target = base < n ? pick(cursor++) : n - 1;
    c = hooks_.migrate(proc, f.obj_addr, f.obj_bytes, target, now);
    action = migrate ? fmt("migrate to proc %u (cluster %zu)", target,
                           f.user_cluster)
                     : fmt("rehome to proc %u (round-robin)", target);
  }
  done_.insert(done_key);
  if (ctl_.steal_relief) ++*ctl_.steal_relief;
  record(f, std::move(action), now, c);
  return c;
}

void AdaptiveEngine::record(const obs::advisor::Finding& f, std::string action,
                            std::uint64_t now, std::uint64_t cost) {
  Decision d;
  d.epoch = epoch_;
  d.cycle = now;
  d.rule = f.kind;
  d.subject = f.subject;
  d.action = std::move(action);
  d.cost_cycles = cost;
  log_.push_back(std::move(d));
}

std::string AdaptiveEngine::log_json() const {
  obs::json::Writer w;
  w.begin_array();
  for (const Decision& d : log_) {
    w.begin_object();
    w.key("epoch").uint_value(d.epoch);
    w.key("cycle").uint_value(d.cycle);
    w.key("rule").string(obs::advice_kind_name(d.rule));
    w.key("subject").string(d.subject);
    w.key("action").string(d.action);
    w.key("cost_cycles").uint_value(d.cost_cycles);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace cool::adaptive
