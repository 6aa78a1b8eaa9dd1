#include "topology/levels.hpp"

namespace cool::topo {

std::vector<ProcId> cluster_members(const MachineConfig& m, ClusterId c) {
  std::vector<ProcId> out;
  const std::uint32_t first = c * m.procs_per_cluster;
  COOL_CHECK(first < m.n_procs, "cluster id out of range");
  const std::uint32_t last =
      first + m.procs_per_cluster < m.n_procs ? first + m.procs_per_cluster
                                              : m.n_procs;
  out.reserve(last - first);
  for (std::uint32_t p = first; p < last; ++p) {
    out.push_back(static_cast<ProcId>(p));
  }
  return out;
}

std::vector<TopoLevel> enumerate_levels(const MachineConfig& m) {
  std::vector<TopoLevel> levels;
  levels.reserve(1 + m.n_clusters());
  TopoLevel root;
  root.kind = TopoLevel::Kind::kMachine;
  root.members.reserve(m.n_procs);
  for (std::uint32_t p = 0; p < m.n_procs; ++p) {
    root.members.push_back(static_cast<ProcId>(p));
  }
  levels.push_back(std::move(root));
  for (std::uint32_t c = 0; c < m.n_clusters(); ++c) {
    TopoLevel lvl;
    lvl.kind = TopoLevel::Kind::kCluster;
    lvl.cluster = static_cast<ClusterId>(c);
    lvl.members = cluster_members(m, static_cast<ClusterId>(c));
    levels.push_back(std::move(lvl));
  }
  return levels;
}

}  // namespace cool::topo
