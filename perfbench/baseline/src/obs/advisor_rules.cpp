#include "obs/advisor_rules.hpp"

#include <algorithm>

namespace cool::obs {

const char* advice_kind_name(AdviceKind k) {
  switch (k) {
    case AdviceKind::kMigrateObject:
      return "migrate-object";
    case AdviceKind::kDistributeObject:
      return "distribute-object";
    case AdviceKind::kTaskAffinity:
      return "task-affinity";
    case AdviceKind::kWholeSetStealing:
      return "whole-set-stealing";
    case AdviceKind::kStealStorm:
      return "steal-storm";
    case AdviceKind::kIdleImbalance:
      return "idle-imbalance";
    case AdviceKind::kLatencyTarget:
      return "latency-target";
    case AdviceKind::kBandwidthBound:
      return "bandwidth-bound";
  }
  return "?";
}

namespace advisor {
namespace {

/// Index of the largest entry and its share of the total (0 if empty).
struct Dominant {
  std::size_t index = 0;
  double share = 0.0;
  std::uint64_t total = 0;
};

Dominant dominant_of(const std::vector<std::uint64_t>& v) {
  Dominant d;
  for (std::size_t i = 0; i < v.size(); ++i) {
    d.total += v[i];
    if (v[i] > v[d.index]) d.index = i;
  }
  if (d.total > 0) {
    d.share = static_cast<double>(v[d.index]) / static_cast<double>(d.total);
  }
  return d;
}

std::uint64_t value_of(const Snapshot& m, const char* name) {
  auto it = m.values.find(name);
  return it == m.values.end() ? 0 : it->second;
}

void object_rules(const ProfileSnapshot& p, const AdvisorConfig& cfg,
                  std::vector<Finding>& out) {
  for (const ProfileSnapshot::ObjectRow& o : p.objects) {
    if (o.anonymous) continue;  // Can't hint what the app didn't name.
    const std::uint64_t misses = o.s.misses();
    if (misses < cfg.min_misses) continue;
    const double remote = misses == 0
                              ? 0.0
                              : static_cast<double>(o.s.remote_misses()) /
                                    static_cast<double>(misses);
    if (remote < cfg.remote_frac) continue;

    const Dominant user = dominant_of(o.miss_from_cluster);
    const Dominant home = dominant_of(o.miss_home_cluster);
    const bool migrate = user.share >= cfg.dominant_frac && home.total > 0 &&
                         user.index != home.index;
    const bool distribute =
        user.share < cfg.dominant_frac && home.share >= cfg.dominant_frac;
    if (!migrate && !distribute) continue;

    Finding f;
    f.kind = migrate ? AdviceKind::kMigrateObject
                     : AdviceKind::kDistributeObject;
    f.subject = o.name;
    f.weight = o.s.remote_stall_cycles;
    f.obj_addr = o.addr;
    f.obj_bytes = o.bytes;
    f.user_cluster = user.index;
    f.user_share = user.share;
    f.home_cluster = home.index;
    f.home_share = home.share;
    f.remote_frac = remote;
    f.remote_stall_cycles = o.s.remote_stall_cycles;
    out.push_back(std::move(f));
  }
}

void set_rules(const ProfileSnapshot& p, const AdvisorConfig& cfg,
               std::vector<Finding>& out) {
  for (const ProfileSnapshot::SetRow& s : p.sets) {
    if (s.tasks < cfg.min_set_tasks || s.procs.size() <= 1) continue;
    Finding f;
    f.kind = hint_has_task_affinity(s.hint) ? AdviceKind::kWholeSetStealing
                                            : AdviceKind::kTaskAffinity;
    f.subject = s.label;
    f.weight = s.s.stall_cycles;
    f.set_key = s.key;
    f.hint = s.hint;
    f.set_tasks = s.tasks;
    f.set_stolen = s.stolen;
    f.set_procs = s.procs.size();
    f.stall_cycles = s.s.stall_cycles;
    out.push_back(std::move(f));
  }
}

void sched_rules(const Snapshot& m, const AdvisorConfig& cfg,
                 std::vector<Finding>& out) {
  const std::uint64_t failed = value_of(m, "sched.failed_steal_scans");
  const std::uint64_t steals = value_of(m, "sched.steals");
  if (failed >= cfg.min_failed_scans &&
      static_cast<double>(failed) >=
          cfg.steal_fail_ratio * static_cast<double>(std::max<std::uint64_t>(
                                     steals, 1))) {
    Finding f;
    f.kind = AdviceKind::kStealStorm;
    f.subject = "scheduler";
    f.weight = failed;
    f.failed_scans = failed;
    f.steals = steals;
    out.push_back(std::move(f));
  }

  const std::uint64_t busy = value_of(m, "proc.busy_cycles");
  const std::uint64_t idle = value_of(m, "proc.idle_cycles");
  const std::uint64_t span = busy + idle;
  if (span > 0) {
    const double idle_frac =
        static_cast<double>(idle) / static_cast<double>(span);
    if (idle_frac >= cfg.idle_frac) {
      Finding f;
      f.kind = AdviceKind::kIdleImbalance;
      f.subject = "scheduler";
      f.weight = idle;
      f.idle_frac = idle_frac;
      f.idle_cycles = idle;
      f.busy_cycles = busy;
      f.queued_max = value_of(m, "sched.queue.max_now");
      out.push_back(std::move(f));
    }
  }
}

/// Bandwidth-bound memory: the busiest channel's busy share of the span
/// crosses the saturation threshold (peak, not mean — a skewed workload
/// saturates the hot cluster's channels while the rest idle, and the peak
/// channel is what the tail queues behind). Only a channel backend
/// (mem.chan.* gauges present) can fire this; the flat model exports
/// nothing and the rule stays silent.
void channel_rules(const Snapshot& m, const AdvisorConfig& cfg,
                   std::vector<Finding>& out) {
  const std::uint64_t nchan = value_of(m, "mem.chan.count");
  const std::uint64_t span = value_of(m, "sim.time");
  if (nchan == 0 || span == 0) return;
  const std::uint64_t busy = value_of(m, "mem.chan.busy_cycles");
  std::uint64_t peak = 0;
  for (const auto& [key, v] : m.values) {
    if (key.size() > 21 && key.compare(0, 9, "mem.chan.") == 0 &&
        key.compare(key.size() - 12, 12, ".busy_cycles") == 0 &&
        key != "mem.chan.busy_cycles") {
      peak = std::max(peak, v);
    }
  }
  const double sat =
      static_cast<double>(peak) / static_cast<double>(span);
  if (sat < cfg.bandwidth_sat_frac) return;
  Finding f;
  f.kind = AdviceKind::kBandwidthBound;
  f.subject = "memory-channels";
  f.weight = busy;
  f.saturation = sat;
  f.chan_count = nchan;
  f.chan_busy_cycles = busy;
  f.queue_full_stalls = value_of(m, "mem.chan.queue_full_stalls");
  const std::uint64_t hits = value_of(m, "mem.chan.row_hits");
  const std::uint64_t rowtotal = hits + value_of(m, "mem.chan.row_misses") +
                                 value_of(m, "mem.chan.row_conflicts");
  if (rowtotal > 0)
    f.row_hit_frac =
        static_cast<double>(hits) / static_cast<double>(rowtotal);
  out.push_back(std::move(f));
}

}  // namespace

std::vector<Finding> evaluate(const ProfileSnapshot& p, const Snapshot& metrics,
                              const AdvisorConfig& cfg) {
  std::vector<Finding> out;
  object_rules(p, cfg, out);
  set_rules(p, cfg, out);
  sched_rules(metrics, cfg, out);
  channel_rules(metrics, cfg, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.weight != b.weight) return a.weight > b.weight;
                     return a.subject < b.subject;
                   });
  return out;
}

}  // namespace advisor
}  // namespace cool::obs
