// FlatBackend: the original per-cluster memory-controller backlog model,
// extracted verbatim from MemorySystem so the contended DdrBackend can slot
// in behind the same interface. Arithmetic is bit-for-bit the pre-backend
// code: every paper figure/table is byte-identical under this default.
#pragma once

#include <vector>

#include "memsim/channel/backend.hpp"

namespace cool::mem {

class FlatBackend final : public ChannelBackend {
 public:
  explicit FlatBackend(const topo::MachineConfig& machine);

  std::uint64_t demand_fill(topo::ClusterId cluster, std::uint64_t addr,
                            std::uint64_t when) override;
  void post_fill(topo::ClusterId cluster, std::uint64_t addr,
                 std::uint64_t when) override;
  void reset() override;

 private:
  /// Queueing delay at `cluster`'s controller for a fill issued at `when`.
  /// Backlog model: each fill adds `mem_occupancy` cycles of pending service;
  /// backlog drains as controller-local time advances. (A simple busy-until
  /// horizon is wrong under run-to-suspension execution: one long task would
  /// push the horizon far ahead and every time-lagging processor would then
  /// pay the whole horizon as queueing delay.)
  std::uint64_t controller_wait(topo::ClusterId cluster, std::uint64_t when);

  struct Controller {
    std::uint64_t last_time = 0;
    std::uint64_t backlog = 0;  ///< Cycles of queued service.
  };
  std::uint64_t occupancy_;              ///< machine.lat.mem_occupancy.
  std::vector<Controller> controllers_;  ///< Per cluster.
};

}  // namespace cool::mem
