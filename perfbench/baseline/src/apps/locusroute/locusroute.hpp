// LocusRoute — SPLASH standard-cell router kernel (paper §6.2, Figs. 8–11).
//
// Wires are routed over a shared CostArray that tracks, per routing cell, how
// many wires pass through horizontally and vertically. Each task rips out a
// wire's previous route, evaluates candidate routes by reading the CostArray,
// commits the cheapest one, and updates the CostArray along it.
//
// Locality structure (paper Figure 8): the CostArray is viewed as
// geographical regions; wires are short, so a wire's task touches (mostly)
// one region. The COOL version supplies a PROCESSOR affinity hint computed
// from the wire's midpoint region — wires of a region route back-to-back on
// "their" processor, reusing that region of the CostArray in the cache and
// avoiding invalidations from other processors. Optionally the regions are
// also physically distributed across memories (Affinity+ObjectDistr).
//
// The CostArray cells are std::atomic<int> so the identical program is also
// race-correct under the real-threads engine; the paper's consistency
// invariant (incremental CostArray == replay of final routes) is checked by
// the tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::locusroute {

enum class Variant {
  kBase,           ///< Round-robin wire tasks, CostArray on processor 0.
  kAffinity,       ///< PROCESSOR affinity by wire region.
  kAffinityDistr,  ///< + CostArray regions distributed across memories.
};

const char* variant_name(Variant v);

struct Config {
  int region_w = 64;        ///< Cells per region along x.
  int height = 64;          ///< Routing-grid height (cells along y).
  int regions = 0;          ///< 0 = one region per processor.
  int wires_per_region = 48;
  double cross_fraction = 0.15;  ///< Wires whose endpoint leaves the region.
  int iterations = 3;       ///< Rip-up-and-reroute passes.
  Variant variant = Variant::kAffinityDistr;
  std::uint64_t seed = 17;
};

struct Point {
  int x = 0;
  int y = 0;
};

struct Wire {
  Point a, b;
  int route = -1;  ///< Chosen candidate index; -1 = unrouted.
};

struct Result {
  apps::RunResult run;
  std::uint64_t total_route_cost = 0;  ///< Final cost of all routes.
  std::uint64_t total_occupancy = 0;   ///< Sum over all CostArray cells.
  double region_adherence = 0.0;       ///< Fraction of wire tasks executed on
                                       ///< their region's processor (paper:
                                       ///< "over 80%").
};

sched::Policy policy_for(Variant v);

Result run(Runtime& rt, const Config& cfg);

/// Verify that replaying the final routes from scratch reproduces the
/// incrementally maintained CostArray (used by tests; run() checks it too
/// and throws on mismatch).
}  // namespace cool::apps::locusroute
