// mem::ChannelBackend: pluggable memory-controller timing under MemorySystem.
//
// MemorySystem charges the paper's fixed service latencies (local_mem /
// remote_mem) itself; a backend only adds the *contention* component — the
// extra stall a fill suffers because the home cluster's memory is busy. Two
// implementations:
//
//   * FlatBackend (default): the original per-cluster backlog model — one
//     occupancy charge per fill, drained by elapsed time. Byte-identical to
//     the pre-backend MemorySystem, so every paper figure is unchanged.
//   * DdrBackend: N channels x B banks per cluster with an open-row policy,
//     tRCD/tCAS/tRP-style timing, bounded per-channel queues and FR-FCFS
//     arbitration. Makes bandwidth saturation and queueing tails visible.
//
// Determinism contract: backends are called in simulated-event order from a
// single driver thread and must be pure functions of (call sequence, config).
// No wall clock, no unordered-container iteration (cool-lint enforces this
// for everything under src/memsim/channel/).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "topology/machine.hpp"

namespace cool::mem {

/// DDR-style timing parameters, in simulated processor cycles (not DRAM
/// clocks — the model is behavioural, not gate-accurate).
struct DdrTiming {
  std::uint32_t t_rcd = 8;   ///< Row activate -> column access.
  std::uint32_t t_cas = 6;   ///< Column access -> first data beat.
  std::uint32_t t_rp = 8;    ///< Precharge (row conflict penalty).
  std::uint32_t t_burst = 4; ///< Data transfer occupancy per line.
};

struct ChannelConfig {
  enum class Kind : std::uint8_t { kFlat, kDdr };
  Kind kind = Kind::kFlat;

  // --- DDR model shape (ignored by kFlat) -----------------------------------
  std::uint32_t channels_per_cluster = 2;
  std::uint32_t banks_per_channel = 4;
  std::uint32_t queue_depth = 8;     ///< Bounded per-channel request queue.
  std::uint64_t row_bytes = 1024;    ///< Open-row (DRAM page) size per bank.
  DdrTiming timing;

  /// Throws util via COOL_CHECK on nonsense (zero channels, row smaller than
  /// a line, ...). Called by make_channel_backend().
  void validate(const topo::MachineConfig& machine) const;
};

/// Monotonic per-channel counters, exported into obs snapshots as
/// mem.chan.<i>.* gauges (cluster-major channel index).
struct ChannelCounters {
  std::uint64_t requests = 0;       ///< Demand fills enqueued.
  std::uint64_t busy_cycles = 0;    ///< Service cycles consumed (drained).
  std::uint64_t queue_hwm = 0;      ///< Queue-depth high-water mark.
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t queue_full_stalls = 0;  ///< Demand fills that found a full queue.
  std::uint64_t prefetch_drops = 0;     ///< Bandwidth-only posts refused.
};

class ChannelBackend {
 public:
  virtual ~ChannelBackend() = default;

  /// Extra stall (beyond the machine's base fill latency) for a demand fill
  /// of the line at byte address `addr`, homed in `cluster`, issued at sim
  /// time `when`. Deterministic in call order.
  virtual std::uint64_t demand_fill(topo::ClusterId cluster, std::uint64_t addr,
                                    std::uint64_t when) = 0;

  /// Bandwidth-only post (prefetch fill): consumes service capacity but the
  /// caller never waits. A full queue may drop the post (counted).
  virtual void post_fill(topo::ClusterId cluster, std::uint64_t addr,
                         std::uint64_t when) = 0;

  /// Drop all queue/row/timing state (counters too). Mirrors
  /// MemorySystem::flush_all_caches().
  virtual void reset() = 0;

  /// Per-channel counters in cluster-major order. Empty for backends with no
  /// per-channel structure (FlatBackend) — obs then emits no mem.chan.* keys,
  /// keeping default snapshots byte-identical to the pre-backend code.
  [[nodiscard]] virtual std::vector<ChannelCounters> stats() const {
    return {};
  }
};

/// Factory: validates `cfg` and builds the matching backend.
std::unique_ptr<ChannelBackend> make_channel_backend(
    const topo::MachineConfig& machine, const ChannelConfig& cfg);

}  // namespace cool::mem
