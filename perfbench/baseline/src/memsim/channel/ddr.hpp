// DdrBackend: contended memory-channel timing model.
//
// Each cluster owns `channels_per_cluster` independent channels; cache lines
// interleave across them by line index. A channel has `banks_per_channel`
// banks, each with one open row: a fill to the open row is a row hit (no
// extra latency), to a closed bank a row miss (+tRCD), to a bank with a
// different row open a row conflict (+tRP +tRCD). Every fill occupies the
// channel for tCAS + tBURST + row-extra cycles; an uncontended row hit adds
// zero stall because tCAS is folded into the machine's base fill latency.
//
// Queueing uses the same drain-with-time discipline as FlatBackend (a
// busy-until horizon is wrong under run-to-suspension execution): a bounded
// per-channel queue of in-flight service obligations drains as channel-local
// time advances. Arbitration is FR-FCFS-style: a row-hit fill is inserted
// ahead of queued non-hit fills (never preempting the entry at the head,
// which is in service). The stall returned to a demand fill is the sum of
// service remaining ahead of it plus its own row-extra; a full queue first
// force-drains from the head (backpressure), charged to the requester.
//
// Prefetch posts consume channel bandwidth but never stall the poster; when
// the queue is full they are dropped (counted) — bounded state, no
// unbounded deferral, fully deterministic in call order.
#pragma once

#include <vector>

#include "memsim/channel/backend.hpp"

namespace cool::mem {

class DdrBackend final : public ChannelBackend {
 public:
  DdrBackend(const topo::MachineConfig& machine, const ChannelConfig& cfg);

  std::uint64_t demand_fill(topo::ClusterId cluster, std::uint64_t addr,
                            std::uint64_t when) override;
  void post_fill(topo::ClusterId cluster, std::uint64_t addr,
                 std::uint64_t when) override;
  void reset() override;
  [[nodiscard]] std::vector<ChannelCounters> stats() const override;

 private:
  static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

  struct Entry {
    std::uint64_t remaining = 0;  ///< Service cycles left to drain.
    bool row_hit = false;         ///< FR-FCFS class at enqueue time.
  };

  struct Channel {
    std::uint64_t last_time = 0;
    std::vector<Entry> queue;          ///< Front = in service.
    std::vector<std::uint64_t> open_row;  ///< Per bank; kNoRow = closed.
    ChannelCounters ctr;
  };

  /// Global channel index for `addr` homed in `cluster` (cluster-major).
  std::size_t channel_of(topo::ClusterId cluster, std::uint64_t addr) const;
  /// Advance `ch`'s local clock to `when`, draining queued service.
  void drain(Channel& ch, std::uint64_t when);
  /// Classify the fill against the open-row state (updating it and the
  /// hit/miss/conflict counters); returns the row-extra latency.
  std::uint64_t classify_row(Channel& ch, std::uint64_t addr);
  /// FR-FCFS insert; returns the service remaining ahead of the new entry.
  std::uint64_t enqueue(Channel& ch, std::uint64_t service, bool row_hit);

  ChannelConfig cfg_;
  std::uint64_t line_bytes_;
  std::vector<Channel> channels_;  ///< n_clusters * channels_per_cluster.
};

}  // namespace cool::mem
