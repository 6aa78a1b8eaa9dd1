// Topology-tree level enumeration for hierarchical schedulers.
//
// The DASH machine is a two-level tree: the machine root over a row of
// clusters, each cluster over `procs_per_cluster` processors. Work
// distribution policies that follow the hierarchy (sched::Balancer) need a
// stable, enumerable description of that tree: one TopoLevel per interior
// node, each knowing its member processors. enumerate_levels() produces the
// machine level first (index kMachineLevel == 0) and then one level per
// cluster in cluster-id order (index 1 + cluster id), so both the scheduler
// and its observability counters can address levels by a dense index.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/machine.hpp"

namespace cool::topo {

struct TopoLevel {
  enum class Kind : std::uint8_t {
    kMachine,  ///< The root: every processor is a member.
    kCluster,  ///< One cluster: its `procs_per_cluster` processors.
  };

  Kind kind = Kind::kMachine;
  ClusterId cluster = 0;  ///< Meaningful for kCluster only.
  std::vector<ProcId> members;  ///< Member processors, ascending.

  [[nodiscard]] bool contains(ProcId p) const {
    for (const ProcId m : members) {
      if (m == p) return true;
    }
    return false;
  }
};

/// Index of the machine level in enumerate_levels() output.
inline constexpr std::size_t kMachineLevel = 0;

/// Index of cluster `c`'s level in enumerate_levels() output.
[[nodiscard]] inline std::size_t cluster_level(ClusterId c) {
  return 1 + static_cast<std::size_t>(c);
}

/// Member processors of cluster `c` (ascending). The last cluster may be
/// partial when n_procs is not a multiple of procs_per_cluster.
[[nodiscard]] std::vector<ProcId> cluster_members(const MachineConfig& m,
                                                  ClusterId c);

/// Enumerate the machine's balancing levels: the machine root, then every
/// cluster in id order. Total size is 1 + n_clusters().
[[nodiscard]] std::vector<TopoLevel> enumerate_levels(const MachineConfig& m);

}  // namespace cool::topo
