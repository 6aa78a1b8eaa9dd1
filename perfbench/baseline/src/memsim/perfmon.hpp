// Performance-monitor counters, modelled on the DASH hardware performance
// monitor the paper uses (reference [11]) to measure bus and network activity
// non-intrusively. Counters are kept per processor and aggregated on demand.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/machine.hpp"

namespace cool::mem {

/// Where an access was serviced — the classification behind the paper's
/// cache-miss figures (Figs. 7, 11, 15).
enum class Service : std::uint8_t {
  kL1Hit = 0,
  kL2Hit,
  kLocalMem,     ///< Miss serviced by the local cluster's memory.
  kRemoteMem,    ///< Miss serviced by a remote cluster's memory.
  kLocalCache,   ///< Miss serviced dirty from a cache within the cluster.
  kRemoteCache,  ///< Miss serviced dirty from a cache in a remote cluster.
};
constexpr int kNumServices = 6;

struct ProcCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t serviced[kNumServices] = {};
  std::uint64_t upgrades = 0;            ///< Writes that invalidated sharers.
  std::uint64_t invals_sent = 0;         ///< Sharer copies invalidated by this proc's writes.
  std::uint64_t invals_received = 0;     ///< This proc's cached lines killed by others.
  std::uint64_t writebacks = 0;          ///< Dirty L2 victims written back.
  std::uint64_t latency_cycles = 0;      ///< Total memory stall cycles.
  std::uint64_t contention_cycles = 0;   ///< Portion of latency spent queueing.
  std::uint64_t pages_migrated = 0;
  std::uint64_t prefetches = 0;          ///< Lines brought in by prefetch.

  [[nodiscard]] std::uint64_t accesses() const noexcept { return reads + writes; }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return serviced[2] + serviced[3] + serviced[4] + serviced[5];
  }
  [[nodiscard]] std::uint64_t local_misses() const noexcept {
    return serviced[2] + serviced[4];
  }
  [[nodiscard]] std::uint64_t remote_misses() const noexcept {
    return serviced[3] + serviced[5];
  }

  void add(const ProcCounters& o) noexcept {
    reads += o.reads;
    writes += o.writes;
    for (int i = 0; i < kNumServices; ++i) serviced[i] += o.serviced[i];
    upgrades += o.upgrades;
    invals_sent += o.invals_sent;
    invals_received += o.invals_received;
    writebacks += o.writebacks;
    latency_cycles += o.latency_cycles;
    contention_cycles += o.contention_cycles;
    pages_migrated += o.pages_migrated;
    prefetches += o.prefetches;
  }
};

class PerfMonitor {
 public:
  explicit PerfMonitor(std::uint32_t n_procs) : per_proc_(n_procs) {}

  ProcCounters& proc(topo::ProcId p) { return per_proc_.at(p); }
  [[nodiscard]] const ProcCounters& proc(topo::ProcId p) const {
    return per_proc_.at(p);
  }

  [[nodiscard]] ProcCounters total() const {
    ProcCounters t;
    for (const auto& c : per_proc_) t.add(c);
    return t;
  }

  void reset() {
    for (auto& c : per_proc_) c = ProcCounters{};
  }

  [[nodiscard]] std::uint32_t n_procs() const noexcept {
    return static_cast<std::uint32_t>(per_proc_.size());
  }

 private:
  std::vector<ProcCounters> per_proc_;
};

}  // namespace cool::mem
