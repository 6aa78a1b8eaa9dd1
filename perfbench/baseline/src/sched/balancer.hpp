// Hierarchical work-distribution policies over the topology tree.
//
// The paper's COOL runtime balances load with one flat idle-steal scan; this
// layer generalises it following zsim-ndp's per-level LoadBalancer shape: the
// scheduler instantiates one Balancer per topology level (the machine root
// plus every cluster, topology/levels.hpp), and an idle processor asks the
// balancer chain for explicit commands instead of hard-coding a victim loop.
// A command either probes one victim's queue (kTrySteal — the classic scan,
// executed with the same try-lock discipline as before) or moves a batch of
// tasks from an overloaded queue (kMoveTasks — equalization). The scheduler
// alone executes commands and touches queues; balancers only observe queue
// sizes (wait-free atomic reads) and decide.
//
// Three policies:
//  * StealingBalancer — byte-identical reproduction of the flat try-lock
//    victim scan (the default; every existing figure reproduces exactly).
//  * AverageBalancer  — queue-length equalization within a level: an idle
//    processor pulls each over-average member down to the ceiling average,
//    falling back to a plain steal scan when nobody is over average so work
//    conservation is preserved.
//  * ReserveBalancer  — hotness-directed reservation: placement consults the
//    locality profiler's per-object heat and pre-places tasks on the cluster
//    homing their hot data (marking them `reserved` so other clusters'
//    thieves leave them alone), with the stealing scan kept as a backstop.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sched/policy.hpp"
#include "sched/queues.hpp"
#include "topology/levels.hpp"
#include "topology/machine.hpp"

namespace cool::sched {

/// One explicit work-distribution command, executed by the scheduler under
/// the usual queue try-lock discipline.
struct BalanceCommand {
  enum class Op : std::uint8_t {
    kTrySteal,   ///< Probe `src`'s queue with the policy's steal rules.
    kMoveTasks,  ///< Move up to `max_tasks` tasks from `src` to `dst`.
  };
  Op op = Op::kTrySteal;
  topo::ProcId src = 0;
  topo::ProcId dst = 0;
  std::uint32_t max_tasks = 1;  ///< kMoveTasks only.
};

/// One profiled data object's heat, as fed to the Reserve balancer: where the
/// object's misses are served from and how much stall time it caused.
struct DataHotness {
  std::uint64_t addr = 0;   ///< Object base address (runtime address space).
  std::uint64_t bytes = 0;  ///< Object extent.
  topo::ClusterId home_cluster = 0;  ///< Cluster homing the hot pages.
  std::uint64_t heat = 0;   ///< Stall cycles attributed to the object.
};

/// Pulls the current hotness table (typically from obs::LocalityProfiler).
/// Must be safe to call from any thread that places tasks.
using HotnessFn = std::function<std::vector<DataHotness>()>;

/// A load-balancing policy instantiated for one topology level. Balancers
/// are stateless observers of queue load (Reserve adds a private reservation
/// table); all queue mutation stays in the scheduler.
class Balancer {
 public:
  Balancer(const topo::TopoLevel& level, const topo::MachineConfig& machine,
           const Policy& policy)
      : level_(level), machine_(machine), policy_(policy) {}
  virtual ~Balancer() = default;
  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  /// Append this level's commands for idle `thief` to `out`, in execution
  /// order. `queues` is observed wait-free (atomic size reads only).
  virtual void generate(topo::ProcId thief,
                        const std::deque<ServerQueues>& queues,
                        std::vector<BalanceCommand>& out) = 0;

  [[nodiscard]] const topo::TopoLevel& level() const noexcept { return level_; }

 protected:
  /// Is `p` one of this level's member processors?
  [[nodiscard]] bool covers(topo::ProcId p) const noexcept {
    return level_.kind == topo::TopoLevel::Kind::kMachine ||
           machine_.cluster_of(p) == level_.cluster;
  }

  const topo::TopoLevel& level_;        ///< Owned by the scheduler.
  const topo::MachineConfig& machine_;
  const Policy& policy_;                ///< The scheduler's live policy.
};

/// The paper's flat idle-steal scan, expressed as commands: one kTrySteal per
/// victim in deterministic ring order after the thief, restricted to this
/// level's members. At the machine level under cluster_first the thief's own
/// cluster is skipped — that pass already ran at the cluster level.
class StealingBalancer : public Balancer {
 public:
  using Balancer::Balancer;
  void generate(topo::ProcId thief, const std::deque<ServerQueues>& queues,
                std::vector<BalanceCommand>& out) override;
};

/// Queue-length equalization within a level: pull every over-average member
/// down to the ceiling average, in ring order. Moves ignore affinity pins
/// (equalization deliberately trades locality for balance); when nobody is
/// over average the balancer degrades to the plain steal scan so an idle
/// processor still drains stragglers.
class AverageBalancer : public Balancer {
 public:
  using Balancer::Balancer;
  void generate(topo::ProcId thief, const std::deque<ServerQueues>& queues,
                std::vector<BalanceCommand>& out) override;
};

/// Hotness-directed reservation (zsim-ndp's DataHotness shape): placement
/// asks reserve_target() for the cluster owning a task's hot data and
/// pre-places the task there instead of waiting for idleness; the inherited
/// stealing scan stays as the idle backstop. The hotness table refreshes
/// every `Policy::reserve_refresh_tasks` placements so reservations track
/// the profile as it accumulates.
class ReserveBalancer : public StealingBalancer {
 public:
  using StealingBalancer::StealingBalancer;

  /// Install the heat source. Until set (or while it reports no hot
  /// objects), reserve_target() declines and placement is unchanged.
  void set_hotness(HotnessFn fn);

  /// Where should a task keyed by affinity object `key_addr` go? Returns the
  /// least-loaded member (ties: lowest id) of the cluster homing the hot
  /// object containing `key_addr`, or nullopt when the address is cold.
  /// Thread-safe; called on the placement path.
  std::optional<topo::ProcId> reserve_target(
      std::uint64_t key_addr, const std::deque<ServerQueues>& queues);

 private:
  void refresh_locked() COOL_REQUIRES(mu_);
  topo::ProcId least_loaded_member(topo::ClusterId c,
                                   const std::deque<ServerQueues>& queues) const;

  /// "Address is cold" sentinel in the target cache.
  static constexpr topo::ProcId kNoTarget = static_cast<topo::ProcId>(~0u);

  mutable util::Mutex mu_;  ///< Guards the table, cache, and counter below.
  HotnessFn hotness_ COOL_GUARDED_BY(mu_);
  /// Heat-descending, truncated.
  std::vector<DataHotness> hot_ COOL_GUARDED_BY(mu_);
  /// Per-affinity-key target cache: one lookup per key between refreshes, so
  /// a whole task-affinity set lands on one server. Probed, never iterated —
  /// lookup order cannot leak into placement decisions.
  std::unordered_map<std::uint64_t, topo::ProcId> cache_ COOL_GUARDED_BY(mu_);
  std::uint64_t placements_ COOL_GUARDED_BY(mu_) = 0;
};

/// Instantiate the policy's balancer for one level.
std::unique_ptr<Balancer> make_balancer(BalancerKind kind,
                                        const topo::TopoLevel& level,
                                        const topo::MachineConfig& machine,
                                        const Policy& policy);

}  // namespace cool::sched
