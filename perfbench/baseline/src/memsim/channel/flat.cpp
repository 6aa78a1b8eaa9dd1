#include "memsim/channel/flat.hpp"

#include <algorithm>

namespace cool::mem {

FlatBackend::FlatBackend(const topo::MachineConfig& machine)
    : occupancy_(machine.lat.mem_occupancy), controllers_(machine.n_clusters()) {}

std::uint64_t FlatBackend::controller_wait(topo::ClusterId cluster,
                                           std::uint64_t when) {
  Controller& ctl = controllers_.at(cluster);
  if (when > ctl.last_time) {
    const std::uint64_t elapsed = when - ctl.last_time;
    ctl.backlog -= std::min(ctl.backlog, elapsed);
    ctl.last_time = when;
  }
  const std::uint64_t wait = ctl.backlog;
  ctl.backlog += occupancy_;
  return wait;
}

std::uint64_t FlatBackend::demand_fill(topo::ClusterId cluster,
                                       std::uint64_t /*addr*/,
                                       std::uint64_t when) {
  return controller_wait(cluster, when);
}

void FlatBackend::post_fill(topo::ClusterId cluster, std::uint64_t /*addr*/,
                            std::uint64_t when) {
  // Prefetches consume controller bandwidth but the poster never waits.
  (void)controller_wait(cluster, when);
}

void FlatBackend::reset() {
  for (auto& ctl : controllers_) ctl = Controller{};
}

}  // namespace cool::mem
