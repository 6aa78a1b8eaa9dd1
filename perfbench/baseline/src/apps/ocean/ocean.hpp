// Ocean — SPLASH eddy-current simulation kernel (paper §6.1, Figure 5).
//
// The computation is a sequence of grid operations over ~a couple dozen
// n×n state grids: regular intra-grid stencils (nearest-neighbour laplacian)
// and inter-grid element-wise operations. Each grid is partitioned into a
// single array of row-strip regions processed in parallel; a waitfor closes
// each grid operation.
//
// The paper's point for Ocean: *default* affinity (each region task runs
// where its region strip is homed) plus an explicit one-time distribution of
// corresponding regions of all grids to the same local memory is enough —
// no per-task hints required. The `distribute()` member below is a direct
// transliteration of Figure 5's `migrate(region+i, i)` loop.
#pragma once

#include <cstdint>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::ocean {

enum class Variant {
  kBase,       ///< No distribution (all grids on processor 0's memory),
               ///< locality-blind round-robin scheduling.
  kDistrNoAff, ///< Regions distributed, but round-robin scheduling.
  kAffOnly,    ///< Default affinity honored, but no distribution (all tasks
               ///< chase processor 0 — the degenerate case the paper's
               ///< distribution step exists to avoid).
  kDistr,      ///< The COOL version: distribution + default affinity.
};

const char* variant_name(Variant v);

struct Config {
  int n = 256;              ///< Grid dimension (row = n doubles).
  int grids = 8;            ///< Number of state grids (paper: 25).
  int steps = 4;            ///< Timesteps; each runs 2 ops per grid.
  int regions_per_proc = 1; ///< Regions = procs * this.
  Variant variant = Variant::kDistr;
  double alpha = 0.05;      ///< Stencil relaxation factor.
  double beta = 0.5;        ///< Inter-grid blend factor.
  /// Multigrid V-cycle depth per step (0 = off). SPLASH Ocean's solver is a
  /// multigrid method; levels halve the grid, so coarse levels have fewer
  /// regions than processors — the load-balance end of the paper's tradeoff.
  int multigrid_levels = 0;
  std::uint64_t seed = 7;
};

struct Result {
  apps::RunResult run;
  double checksum = 0.0;  ///< Sum over all grid elements after the last step.
};

sched::Policy policy_for(Variant v);

/// Run the simulated-ocean solve under `cfg`.
Result run(Runtime& rt, const Config& cfg);

/// Serial reference performing the identical operation sequence; its
/// checksum must match the parallel run exactly (phases are race-free).
double serial_checksum(const Config& cfg, std::uint32_t procs);

}  // namespace cool::apps::ocean
