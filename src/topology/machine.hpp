// Machine description for the simulated multiprocessor.
//
// The paper evaluates on the Stanford DASH prototype: 32 processors in 8
// clusters of 4, two-level caches (64 KB L1, 256 KB L2), and a three-level
// memory hierarchy with latencies of roughly 1 cycle (L1), 14 cycles (L2),
// 30 cycles (local cluster memory) and 100–150 cycles (remote memory).
// MachineConfig captures exactly those parameters; dash() reproduces the
// paper's machine and is the default for every figure benchmark.
#pragma once

#include <bit>
#include <cstdint>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace cool::topo {

using ProcId = std::uint32_t;
using ClusterId = std::uint32_t;

/// Reference latencies, in processor cycles.
struct LatencyModel {
  std::uint32_t l1_hit = 1;            ///< First-level cache hit.
  std::uint32_t l2_hit = 14;           ///< Second-level cache hit.
  std::uint32_t local_mem = 30;        ///< Miss serviced by local cluster memory.
  std::uint32_t remote_mem = 120;      ///< Miss serviced by a remote cluster memory.
  std::uint32_t remote_cache = 132;    ///< Miss serviced dirty from a remote cache.
  std::uint32_t local_cache = 45;      ///< Miss serviced dirty from a cache in-cluster.
  std::uint32_t inval_local = 12;      ///< Invalidate copies within the cluster.
  std::uint32_t inval_remote = 50;     ///< Invalidate copies in remote clusters (partially overlapped by the write buffer).
  std::uint32_t mem_occupancy = 8;     ///< Controller occupancy per line fill
                                       ///< (bandwidth/contention model).
  std::uint32_t page_copy = 2000;      ///< Cycles to migrate one page of memory.
};

struct MachineConfig {
  std::uint32_t n_procs = 32;
  std::uint32_t procs_per_cluster = 4;

  std::uint32_t line_bytes = 16;       ///< DASH cache line size.
  std::uint32_t page_bytes = 4096;     ///< DASH page size (migration grain).

  std::uint32_t l1_bytes = 64 * 1024;
  std::uint32_t l1_assoc = 1;          ///< DASH L1 is direct mapped.
  std::uint32_t l2_bytes = 256 * 1024;
  std::uint32_t l2_assoc = 1;          ///< DASH L2 is direct mapped.

  LatencyModel lat;

  /// The paper's machine: 32 procs, 8 clusters of 4.
  static MachineConfig dash(std::uint32_t n_procs = 32) {
    MachineConfig m;
    m.n_procs = n_procs;
    return m;
  }

  /// A scaled-down machine (smaller caches) so scaled-down problem sizes
  /// exhibit the paper-scale cache pressure. Used by tests and a few benches.
  static MachineConfig dash_small(std::uint32_t n_procs = 16) {
    MachineConfig m;
    m.n_procs = n_procs;
    m.l1_bytes = 8 * 1024;
    m.l2_bytes = 32 * 1024;
    return m;
  }

  /// Throws cool::util::Error if the configuration is inconsistent.
  void validate() const;

  [[nodiscard]] std::uint32_t n_clusters() const {
    return (n_procs + procs_per_cluster - 1) / procs_per_cluster;
  }
  [[nodiscard]] ClusterId cluster_of(ProcId p) const {
    COOL_DCHECK(p < n_procs, "processor id out of range");
    return p / procs_per_cluster;
  }
  [[nodiscard]] bool same_cluster(ProcId a, ProcId b) const {
    return cluster_of(a) == cluster_of(b);
  }

  // Shifts, not divides: validate() requires both sizes to be powers of two.
  [[nodiscard]] unsigned line_shift() const noexcept {
    return static_cast<unsigned>(std::countr_zero(line_bytes));
  }
  [[nodiscard]] std::uint64_t line_of(std::uint64_t addr) const {
    return addr >> line_shift();
  }
  [[nodiscard]] std::uint64_t page_of(std::uint64_t addr) const {
    return addr >> std::countr_zero(page_bytes);
  }
};

}  // namespace cool::topo
