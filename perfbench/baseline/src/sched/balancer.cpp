#include "sched/balancer.hpp"

#include <algorithm>

namespace cool::sched {

void StealingBalancer::generate(topo::ProcId thief,
                                const std::deque<ServerQueues>& queues,
                                std::vector<BalanceCommand>& out) {
  (void)queues;  // The steal scan probes victims blind, as the paper does.
  const std::uint32_t P = machine_.n_procs;
  for (std::uint32_t i = 1; i < P; ++i) {
    const auto victim = static_cast<topo::ProcId>((thief + i) % P);
    if (!covers(victim)) continue;
    if (level_.kind == topo::TopoLevel::Kind::kMachine &&
        policy_.cluster_first && machine_.same_cluster(thief, victim)) {
      // Second pass of a cluster_first chain: the thief's own cluster was
      // already scanned at the cluster level.
      continue;
    }
    out.push_back({BalanceCommand::Op::kTrySteal, victim, thief, 1});
  }
}

void AverageBalancer::generate(topo::ProcId thief,
                               const std::deque<ServerQueues>& queues,
                               std::vector<BalanceCommand>& out) {
  std::size_t total = 0;
  for (const topo::ProcId m : level_.members) total += queues[m].size();
  const std::size_t n = level_.members.size();
  const std::size_t avg = n == 0 ? 0 : (total + n - 1) / n;

  const std::uint32_t P = machine_.n_procs;
  bool any_moves = false;
  for (std::uint32_t i = 1; i < P; ++i) {
    const auto victim = static_cast<topo::ProcId>((thief + i) % P);
    if (!covers(victim)) continue;
    const std::size_t sz = queues[victim].size();
    if (sz > avg) {
      out.push_back({BalanceCommand::Op::kMoveTasks, victim, thief,
                     static_cast<std::uint32_t>(sz - avg)});
      any_moves = true;
    }
  }
  if (any_moves) return;
  // Nobody is over average, but the thief is idle: degrade to the plain
  // steal scan so stragglers (e.g. one short queue on a busy server) are
  // still drained and no work is stranded.
  for (std::uint32_t i = 1; i < P; ++i) {
    const auto victim = static_cast<topo::ProcId>((thief + i) % P);
    if (!covers(victim)) continue;
    out.push_back({BalanceCommand::Op::kTrySteal, victim, thief, 1});
  }
}

void ReserveBalancer::set_hotness(HotnessFn fn) {
  util::MutexLock l(mu_);
  hotness_ = std::move(fn);
  hot_.clear();
  cache_.clear();
  placements_ = 0;
}

void ReserveBalancer::refresh_locked() {
  hot_ = hotness_();
  // Heat-descending so the hottest object wins containment ties; address
  // ascending as the deterministic tie-break.
  std::stable_sort(hot_.begin(), hot_.end(),
                   [](const DataHotness& a, const DataHotness& b) {
                     if (a.heat != b.heat) return a.heat > b.heat;
                     return a.addr < b.addr;
                   });
  constexpr std::size_t kMaxHot = 32;
  if (hot_.size() > kMaxHot) hot_.resize(kMaxHot);
  cache_.clear();
}

topo::ProcId ReserveBalancer::least_loaded_member(
    topo::ClusterId c, const std::deque<ServerQueues>& queues) const {
  const std::vector<topo::ProcId> members = topo::cluster_members(machine_, c);
  // reserve_exclude_mask hides processors whose queue length lies about
  // their availability (a serving front-end: the pump occupies the
  // processor without being queued on it). If every member is masked the
  // mask is ignored — stranding the reservation would be worse.
  const std::uint64_t mask = policy_.reserve_exclude_mask;
  auto excluded = [&](topo::ProcId m) {
    return m < 64 && ((mask >> m) & 1u) != 0;
  };
  bool all_masked = true;
  for (const topo::ProcId m : members) all_masked = all_masked && excluded(m);
  topo::ProcId best = topo::ProcId(0);
  std::size_t best_sz = 0;
  bool have = false;
  for (const topo::ProcId m : members) {
    if (!all_masked && excluded(m)) continue;
    const std::size_t sz = queues[m].size();
    if (!have || sz < best_sz) {  // strict: ties go to the lowest id
      best = m;
      best_sz = sz;
      have = true;
    }
  }
  return best;
}

std::optional<topo::ProcId> ReserveBalancer::reserve_target(
    std::uint64_t key_addr, const std::deque<ServerQueues>& queues) {
  util::MutexLock l(mu_);
  if (!hotness_) return std::nullopt;
  const std::uint32_t period =
      policy_.reserve_refresh_tasks == 0 ? 1 : policy_.reserve_refresh_tasks;
  if (placements_ % period == 0) refresh_locked();
  ++placements_;

  if (const auto it = cache_.find(key_addr); it != cache_.end()) {
    if (it->second == kNoTarget) return std::nullopt;
    return it->second;
  }
  topo::ProcId target = kNoTarget;
  for (const DataHotness& h : hot_) {
    if (key_addr >= h.addr && key_addr < h.addr + h.bytes) {
      target = least_loaded_member(h.home_cluster, queues);
      break;
    }
  }
  cache_.emplace(key_addr, target);
  if (target == kNoTarget) return std::nullopt;
  return target;
}

std::unique_ptr<Balancer> make_balancer(BalancerKind kind,
                                        const topo::TopoLevel& level,
                                        const topo::MachineConfig& machine,
                                        const Policy& policy) {
  switch (kind) {
    case BalancerKind::kStealing:
      return std::make_unique<StealingBalancer>(level, machine, policy);
    case BalancerKind::kAverage:
      return std::make_unique<AverageBalancer>(level, machine, policy);
    case BalancerKind::kReserve:
      return std::make_unique<ReserveBalancer>(level, machine, policy);
  }
  return nullptr;
}

}  // namespace cool::sched
