// Barnes-Hut — hierarchical N-body simulation (paper §6.4, Figure 16a).
//
// Bodies are drawn from a Plummer-like distribution; each timestep rebuilds
// an octree, computes forces with the θ opening criterion, and integrates
// with leapfrog. Force and integration tasks operate on contiguous *blocks*
// of bodies; the COOL version distributes the body blocks across processor
// memories and supplies OBJECT affinity on the block, so a block's forces
// are always computed where its bodies live — the tree is read-shared and
// replicates in the caches. The paper reports the COOL version performing
// close to the hand-coded ANL program with just these hints.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::barneshut {

enum class Variant {
  kBase,      ///< Round-robin tasks, bodies on processor 0.
  kDistrAff,  ///< Body blocks distributed + OBJECT affinity.
};

const char* variant_name(Variant v);

struct Config {
  int n_bodies = 2048;
  int block_size = 64;    ///< Bodies per task.
  int steps = 2;
  double theta = 0.5;     ///< Opening criterion.
  double dt = 0.01;
  double eps = 0.05;      ///< Softening.
  Variant variant = Variant::kDistrAff;
  std::uint64_t seed = 11;
};

struct Result {
  apps::RunResult run;
  double energy = 0.0;           ///< Kinetic energy after the last step.
  double max_force_error = 0.0;  ///< Max relative error of tree forces vs.
                                 ///< direct summation (sampled bodies,
                                 ///< first step).
};

sched::Policy policy_for(Variant v);

Result run(Runtime& rt, const Config& cfg);

}  // namespace cool::apps::barneshut
