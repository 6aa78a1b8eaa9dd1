// Unsync — seeded-race synthetic workload for the happens-before detector.
//
// Worker tasks each own a disjoint slice (race-free by construction) but all
// fold their partial sums into one shared accumulator. With
// `synchronized_run == false` the fold is a bare read-modify-write: sibling
// tasks have no happens-before edge between them, so the detector must flag
// the accumulator — deterministically, on every schedule — and attribute it
// to the registered "acc" object. With `synchronized_run == true` the fold
// runs under a Mutex and the run must report zero races; the slice traffic is
// identical either way, so the pair doubles as a false-positive regression.
#pragma once

#include <cstdint>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::unsync {

struct Config {
  int tasks = 8;             ///< Worker tasks (>= 2 for the race to exist).
  int rounds = 4;            ///< Fold iterations per worker.
  std::size_t slice_kb = 4;  ///< Private slice per worker.
  bool synchronized_run = false;  ///< Guard the accumulator with a Mutex.
};

struct Result {
  apps::RunResult run;
  double checksum = 0.0;
};

Result run(Runtime& rt, const Config& cfg);

}  // namespace cool::apps::unsync
