// Differential test: AdaptiveEngine (one explicit control state, one code
// path per actuator) against the earlier engine kept in engine_oracle.hpp.
// Seeded streams of synthetic epochs run in lockstep through both engines,
// each with its own live scheduler policy. The streams carry
//   * profile rows that fire the migrate, distribute and task-affinity
//     rules (sub-page, multi-page and wider-than-the-machine objects);
//   * sched.* counters and sched.queue.max_now gauges that fire the
//     steal-storm, idle-imbalance and whole-set rules, or stay calm;
//   * request-latency and breakdown histograms over, near and well under
//     the target, queue-wait or memory-stall dominated;
//   * mem.chan.* gauges on both sides of bandwidth_saturation_frac.
// Every dispatch's charged cycles must agree, and so must the decision logs
// (log_json), the sequence of policy mutations and of migrate/promote
// calls, the epoch count and both governors' state. Coverage floors make
// sure every decision family fires somewhere and that the serving-mode
// memory gate reopens after a recovery, so no stream passes vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "adaptive/engine.hpp"
#include "adaptive/policy.hpp"
#include "common/rng.hpp"
#include "engine_oracle.hpp"

namespace cool::adaptive {
namespace {

constexpr std::uint64_t kTarget = 1000;

struct Case {
  bool latency;     ///< Latency objective (a target set) or throughput.
  bool balancer;    ///< AdaptPolicy::enable_balancer.
  bool breakdown;   ///< Breakdown sensor attached.
  bool data_hooks;  ///< migrate and promote hooks present.
  std::uint64_t seed;
};

std::string label(const Case& c) {
  return std::string(c.latency ? "Latency" : "Throughput") +
         (c.balancer ? "_Balancer" : "_NoBalancer") +
         (c.breakdown ? "_Breakdown" : "_NoBreakdown") +
         (c.data_hooks ? "_DataHooks" : "_NoDataHooks") + "_Seed" +
         std::to_string(c.seed);
}

// Without it gtest prints a Case as raw bytes and the listed name would
// change from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << label(c); }

/// The cumulative sensor inputs both engines read.
struct Inputs {
  obs::ProfileSnapshot profile;
  obs::Snapshot metrics;
  obs::LatencyHist hist;
  obs::BreakdownSample bd;
};

std::string policy_text(const sched::Policy& p) {
  return "policy steal_object_tasks=" + std::to_string(p.steal_object_tasks) +
         " steal_whole_sets=" + std::to_string(p.steal_whole_sets) +
         " max_steal_scan=" + std::to_string(p.max_steal_scan) +
         " balancer=" + std::to_string(static_cast<int>(p.balancer));
}

/// One engine's side of the lockstep run: the shared inputs, its own live
/// policy, and every side effect it caused, in order.
struct World {
  const Inputs* in = nullptr;
  sched::Policy live;
  std::vector<std::string> effects;

  Hooks hooks(bool data_hooks) {
    Hooks h;
    h.profile = [this] { return in->profile; };
    h.metrics = [this] { return in->metrics; };
    h.policy = [this] { return live; };
    h.mutate_policy = [this](const std::function<void(sched::Policy&)>& fn) {
      fn(live);
      effects.push_back(policy_text(live));
    };
    if (data_hooks) {
      h.migrate = [this](topo::ProcId caller, std::uint64_t addr,
                         std::uint64_t bytes, topo::ProcId home,
                         std::uint64_t now) -> std::uint64_t {
        effects.push_back("migrate caller=" + std::to_string(caller) +
                          " addr=" + std::to_string(addr) +
                          " bytes=" + std::to_string(bytes) +
                          " home=" + std::to_string(home) +
                          " now=" + std::to_string(now));
        return 20 + bytes / 256 + home;
      };
      h.promote = [this](std::uint64_t set_key, bool on) {
        effects.push_back("promote " + std::to_string(set_key) +
                          (on ? " on" : " off"));
      };
    }
    return h;
  }
};

std::string governor_text(const Governor& g) {
  std::string s;
  for (const auto& [key, st] : g.states()) {
    s += key + ":" + std::to_string(st.streak) + "/" +
         std::to_string(st.last_seen) + "/" +
         std::to_string(st.cooldown_until) + ";";
  }
  return s;
}

// ------------------------------------------------------------ the stream

/// One phase of the stream: a few dispatches with a fixed regime.
struct Phase {
  enum class Sched { kStorm, kPileUp, kCalm, kBarrierIdle } sched;
  enum class Tail { kOver, kNear, kHeadroom, kSparse } tail;
  bool mem_dominated = false;
  bool saturated = false;
  std::uint64_t object_pct = 0;  ///< Chance an object row sees misses.
  std::uint64_t set_pct = 0;     ///< Chance a set row sees tasks.
  std::uint64_t steps_left = 0;
};

/// Seeded generator of cumulative inputs. Objects have a fixed miss
/// pattern (migrate: one dominant user cluster, homed elsewhere;
/// distribute: users spread, one home) and act once each, so fresh objects
/// and sets keep appearing.
class Stream {
 public:
  Stream(const topo::MachineConfig& m, std::uint64_t seed, bool channels)
      : m_(m), rng_(seed), channels_(channels) {}

  /// Advance one dispatch: returns the dispatching processor and clock.
  std::pair<topo::ProcId, std::uint64_t> step(Inputs& in) {
    if (phase_.steps_left == 0) new_phase();
    --phase_.steps_left;
    const std::uint64_t adv = 100 + rng_.next_below(500);
    clock_ += adv;
    sched_activity(in);
    profile_activity(in);
    latency_activity(in);
    if (channels_) channel_activity(in, adv);
    in.metrics.values["sim.time"] = clock_;
    const auto proc = static_cast<topo::ProcId>(rng_.next_below(m_.n_procs));
    // Processors' clocks lag each other under run-to-suspension.
    const std::uint64_t lag =
        rng_.next_below(5) == 0 ? rng_.next_below(std::min<std::uint64_t>(clock_, 2000))
                                : 0;
    return {proc, clock_ - lag};
  }

 private:
  void new_phase() {
    phase_.sched = static_cast<Phase::Sched>(rng_.next_below(4));
    phase_.tail = static_cast<Phase::Tail>(rng_.next_below(4));
    phase_.mem_dominated = rng_.next_below(2) == 0;
    phase_.saturated = rng_.next_below(2) == 0;
    phase_.object_pct = rng_.next_below(3) * 30;
    phase_.set_pct = rng_.next_below(3) * 25;
    phase_.steps_left = 2 + rng_.next_below(10);
  }

  std::uint64_t& val(Inputs& in, const char* key) {
    return in.metrics.values[key];
  }

  void sched_activity(Inputs& in) {
    const std::uint64_t n = m_.n_procs;
    std::uint64_t busy = 950;
    std::uint64_t idle = 50;
    std::uint64_t queued = rng_.next_below(3);
    switch (phase_.sched) {
      case Phase::Sched::kStorm:
        val(in, "sched.failed_steal_scans") += 20 + rng_.next_below(60);
        val(in, "sched.steals") += rng_.next_below(4);
        break;
      case Phase::Sched::kPileUp:
        busy = 300;
        idle = 700;
        queued = n / 2 + rng_.next_below(n);
        break;
      case Phase::Sched::kCalm:
        val(in, "sched.failed_steal_scans") += rng_.next_below(3);
        val(in, "sched.steals") += 1 + rng_.next_below(3);
        break;
      case Phase::Sched::kBarrierIdle:
        busy = 300;
        idle = 700;
        queued = rng_.next_below(4);
        break;
    }
    val(in, "proc.busy_cycles") += busy;
    val(in, "proc.idle_cycles") += idle;
    val(in, "sched.queue.max_now") = queued;
    val(in, "sched.queue.now") = queued + rng_.next_below(4);
  }

  void new_object(Inputs& in) {
    const std::uint64_t k = in.profile.objects.size();
    obs::ProfileSnapshot::ObjectRow o;
    o.name = "obj" + std::to_string(k);
    o.addr = (k + 1) << 20;
    const std::uint64_t sizes[] = {256, 1024, 4096, 3 * 4096 + 512,
                                   16 * 4096};
    o.bytes = sizes[rng_.next_below(5)];
    // Now and then a profile wider than the machine: a user cluster past
    // its last processor.
    const bool wide = rng_.next_below(8) == 0;
    const std::size_t clusters = m_.n_clusters() + (wide ? 1 : 0);
    o.miss_from_cluster.assign(clusters, 0);
    o.miss_home_cluster.assign(clusters, 0);
    in.profile.objects.push_back(std::move(o));
    Pattern p;
    p.distribute = !wide && rng_.next_below(2) == 0;
    p.user = wide ? clusters - 1 : rng_.next_below(clusters);
    p.home = (p.user + 1 + rng_.next_below(clusters - 1)) % clusters;
    patterns_.push_back(p);
  }

  void new_set(Inputs& in) {
    obs::ProfileSnapshot::SetRow s;
    s.key = 0x40000000ull + in.profile.sets.size() * 64;
    s.label = "set" + std::to_string(in.profile.sets.size());
    s.hint = rng_.next_below(4) == 0 ? obs::HintClass::kTaskObject
                                     : obs::HintClass::kObject;
    s.procs = {0, static_cast<topo::ProcId>(1 + rng_.next_below(3))};
    in.profile.sets.push_back(std::move(s));
  }

  void profile_activity(Inputs& in) {
    if (in.profile.objects.empty() || rng_.next_below(100) < 15) {
      new_object(in);
    }
    if (in.profile.sets.empty() || rng_.next_below(100) < 8) new_set(in);
    const std::size_t nobj = in.profile.objects.size();
    for (std::size_t i = nobj > 6 ? nobj - 6 : 0; i < nobj; ++i) {
      if (rng_.next_below(100) >= phase_.object_pct) continue;
      obs::ProfileSnapshot::ObjectRow& o = in.profile.objects[i];
      const Pattern& p = patterns_[i];
      const std::uint64_t misses = 10 + rng_.next_below(40);
      for (std::size_t c = 0; c < o.miss_from_cluster.size(); ++c) {
        o.miss_from_cluster[c] +=
            p.distribute ? misses / 4 : (c == p.user ? misses : 1);
      }
      o.miss_home_cluster[p.home] += misses;
      o.s.serviced[3] += misses;  // Remote fills.
      o.s.serviced[2] += misses / 4;
      o.s.reads += misses * 3;
      const std::uint64_t stall = 100 + rng_.next_below(5000);
      o.s.stall_cycles += stall;
      o.s.remote_stall_cycles += stall;
    }
    const std::size_t nset = in.profile.sets.size();
    for (std::size_t i = nset > 4 ? nset - 4 : 0; i < nset; ++i) {
      if (rng_.next_below(100) >= phase_.set_pct) continue;
      obs::ProfileSnapshot::SetRow& s = in.profile.sets[i];
      s.tasks += 2 + rng_.next_below(6);
      s.stolen += rng_.next_below(2);
      s.s.stall_cycles += 100 + rng_.next_below(5000);
    }
  }

  void latency_activity(Inputs& in) {
    const std::uint64_t samples = phase_.tail == Phase::Tail::kSparse
                                      ? rng_.next_below(2)
                                      : 3 + rng_.next_below(6);
    for (std::uint64_t i = 0; i < samples; ++i) {
      std::uint64_t v = 0;
      switch (phase_.tail) {
        case Phase::Tail::kOver:
          v = kTarget + 100 + rng_.next_below(4 * kTarget);
          break;
        case Phase::Tail::kNear:
          v = kTarget / 2 + 20 + rng_.next_below(kTarget / 2 - 20);
          break;
        case Phase::Tail::kHeadroom:
        case Phase::Tail::kSparse:
          v = 50 + rng_.next_below(kTarget / 2 - 60);
          break;
      }
      in.hist.record(v);
      const std::uint64_t big = v * 7 / 10;
      const std::uint64_t small = v / 5;
      in.bd.queue_wait.record(phase_.mem_dominated ? small : big);
      in.bd.memory_stall.record(phase_.mem_dominated ? big : small);
      in.bd.service.record(v - (phase_.mem_dominated ? small : big));
      in.bd.steal_penalty.record(0);
    }
  }

  void channel_activity(Inputs& in, std::uint64_t adv) {
    const std::uint64_t hot = adv * (phase_.saturated ? 95 : 30) / 100;
    const std::uint64_t cold = adv / 10;
    val(in, "mem.chan.count") = 2;
    val(in, "mem.chan.0.busy_cycles") += hot;
    val(in, "mem.chan.1.busy_cycles") += cold;
    // The aggregate is not a per-channel key and must not feed the peak.
    val(in, "mem.chan.busy_cycles") += hot + cold;
  }

  struct Pattern {
    bool distribute = false;
    std::size_t user = 0;
    std::size_t home = 0;
  };

  topo::MachineConfig m_;
  util::Rng rng_;
  bool channels_;
  Phase phase_{};
  std::uint64_t clock_ = 0;
  std::vector<Pattern> patterns_;
};

// ------------------------------------------------------------- the run

/// Action-string families: every decision the engine can log falls in one.
/// Matched in order, first prefix wins.
constexpr const char* kFamilies[] = {
    "migrate to proc ",
    "migrate ",
    "distribute ",
    "rehome to proc ",
    "promote to TASK affinity",
    "steal_whole_sets=on",
    "steal_object_tasks=on (queue pile-up)",
    "steal_object_tasks=on (p99",
    "steal_object_tasks=on",
    "steal_object_tasks=off (data spread)",
    "steal_object_tasks=off (p99",
    "max_steal_scan=",
    "balancer=average (pile-up persists)",
    "balancer=average (p99",
    "balancer=stealing (pile-up drained)",
    "escalate=migrate",
    "escalate=distribute",
};

const char* family_of(const std::string& action) {
  for (const char* f : kFamilies) {
    if (action.rfind(f, 0) == 0) return f;
  }
  return nullptr;
}

struct Coverage {
  std::map<std::string, std::uint64_t> families;
  std::uint64_t decisions = 0;
  std::uint64_t gate_reopens = 0;  ///< Serving rehome after a recovery.
};

AdaptPolicy stream_policy(const Case& c, util::Rng& rng) {
  AdaptPolicy p;
  p.epoch_tasks = 1 + rng.next_below(3);
  p.epoch_cycles = rng.next_below(2) == 0 ? 0 : 1500;
  p.confirm_epochs = 1 + static_cast<std::uint32_t>(rng.next_below(2));
  const std::uint32_t cooldowns[] = {0, 1, 2, 4};
  p.cooldown_epochs = cooldowns[rng.next_below(4)];
  p.max_actions_per_epoch = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  // Switching the steal-policy actuator off leaves a stream without data
  // hooks nothing to decide, so only streams with them try it.
  p.enable_hints = rng.next_below(8) != 0;
  p.enable_steal_policy = !c.data_hooks || rng.next_below(8) != 0;
  p.enable_balancer = c.balancer;
  p.latency_target_cycles = c.latency ? kTarget : 0;
  p.latency_min_samples = rng.next_below(2) == 0 ? 4 : 8;
  const std::uint32_t dwells[] = {1, 2, 6};
  p.balancer_dwell_epochs = dwells[rng.next_below(3)];
  p.balancer_max_switches = 2 + static_cast<std::uint32_t>(rng.next_below(6));
  return p;
}

sched::Policy initial_policy(util::Rng& rng) {
  sched::Policy live;
  live.steal_whole_sets = rng.next_below(2) == 0;
  // Now and then a user-chosen balancer the engine must leave alone.
  if (rng.next_below(6) == 0) live.balancer = sched::BalancerKind::kReserve;
  const std::uint64_t masks[] = {0, 0x1, 0xf, 0x5};
  live.reserve_exclude_mask = masks[rng.next_below(4)];
  return live;
}

void run_case(const Case& c, Coverage& cov) {
  const topo::MachineConfig machine = topo::MachineConfig::dash(16);
  util::Rng cfg_rng(c.seed * 16 + (c.latency ? 8 : 0) + (c.balancer ? 4 : 0) +
                    (c.breakdown ? 2 : 0) + (c.data_hooks ? 1 : 0));
  const AdaptPolicy pol = stream_policy(c, cfg_rng);
  const sched::Policy live = initial_policy(cfg_rng);

  Inputs in;
  World ref_world{&in, live, {}};
  World new_world{&in, live, {}};
  oracle::AdaptiveEngine ref(machine, pol, ref_world.hooks(c.data_hooks));
  AdaptiveEngine eng(machine, pol, new_world.hooks(c.data_hooks));
  const auto latency = [&in] { return in.hist; };
  ref.set_latency_sensor(latency);
  eng.set_latency_sensor(latency);
  if (c.breakdown) {
    const auto breakdown = [&in] { return in.bd; };
    ref.set_breakdown_sensor(breakdown);
    eng.set_breakdown_sensor(breakdown);
  }

  Stream stream(machine, c.seed, /*channels=*/c.seed % 2 == 0);
  obs::LatencyHist at_last_epoch;
  bool rehomed = false;    // A serving-mode rehome went through the gate...
  bool recovered = false;  // ...and a later epoch recovered.
  for (int i = 0; i < 900; ++i) {
    const auto [proc, now] = stream.step(in);
    const std::size_t logged = ref.log().size();
    const std::uint64_t epochs = ref.epochs();
    const std::uint64_t want = ref.on_task_dispatch(proc, now);
    const std::uint64_t got = eng.on_task_dispatch(proc, now);
    ASSERT_EQ(got, want) << "dispatch " << i;
    ASSERT_EQ(eng.epochs(), ref.epochs()) << "dispatch " << i;
    ASSERT_EQ(new_world.effects, ref_world.effects) << "dispatch " << i;
    if (ref.epochs() == epochs) continue;
    for (std::size_t d = logged; d < ref.log().size(); ++d) {
      const std::string& action = ref.log()[d].action;
      const char* fam = family_of(action);
      EXPECT_NE(fam, nullptr) << "unknown action '" << action << "'";
      if (fam != nullptr) ++cov.families[fam];
      const obs::AdviceKind rule = ref.log()[d].rule;
      if (c.latency && (rule == obs::AdviceKind::kMigrateObject ||
                        rule == obs::AdviceKind::kDistributeObject)) {
        if (rehomed && recovered) ++cov.gate_reopens;
        rehomed = true;
        recovered = false;
      }
    }
    // The epoch that just closed judged this delta; at or under target with
    // enough samples is a recovery, which closes the memory gate.
    const obs::LatencyHist delta = in.hist.diff(at_last_epoch);
    at_last_epoch = in.hist;
    if (rehomed && delta.count() >= pol.latency_min_samples &&
        delta.quantile(0.99) <= kTarget) {
      recovered = true;
    }
  }
  cov.decisions += ref.log().size();
  EXPECT_EQ(eng.log_json(), ref.log_json());
  EXPECT_EQ(governor_text(eng.governor()), governor_text(ref.governor()));
  EXPECT_EQ(governor_text(eng.balancer_governor().base()),
            governor_text(ref.balancer_governor().base()));
  EXPECT_EQ(eng.balancer_governor().switches(),
            ref.balancer_governor().switches());
  EXPECT_EQ(eng.balancer_governor().last_switch_epoch(),
            ref.balancer_governor().last_switch_epoch());
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const bool latency : {false, true}) {
    for (const bool balancer : {false, true}) {
      for (const bool breakdown : {false, true}) {
        for (const bool data_hooks : {false, true}) {
          for (const std::uint64_t seed : {1u, 2u}) {
            out.push_back(Case{latency, balancer, breakdown, data_hooks, seed});
          }
        }
      }
    }
  }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return label(info.param);
}

class EngineOracle : public ::testing::TestWithParam<Case> {};

TEST_P(EngineOracle, MatchesReferenceEngine) {
  Coverage cov;
  run_case(GetParam(), cov);
  // Every stream must decide something, more than once.
  EXPECT_GE(cov.decisions, 2u);
}

INSTANTIATE_TEST_SUITE_P(Streams, EngineOracle, ::testing::ValuesIn(cases()),
                         case_name);

// Across all streams every action family fires, and the memory gate closes
// on recovery and reopens on a later memory-dominated overshoot.
TEST(EngineOracleCoverage, EveryDecisionFamilyFires) {
  Coverage cov;
  for (const Case& c : cases()) {
    SCOPED_TRACE(label(c));
    run_case(c, cov);
    if (HasFatalFailure()) return;
  }
  for (const char* fam : kFamilies) {
    EXPECT_GE(cov.families[fam], 1u) << "family '" << fam << "' never fired";
  }
  EXPECT_GE(cov.gate_reopens, 1u);
}

}  // namespace
}  // namespace cool::adaptive
