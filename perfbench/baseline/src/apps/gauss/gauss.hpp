// Column-oriented Gaussian elimination / dense column Cholesky — the paper's
// running example for composing affinity hints (Figure 3):
//
//   parallel mutex void update (column* src)
//     [ affinity (src, TASK); affinity (this, OBJECT) ];
//
// A task updates a destination column using a completed source column.
// Memory locality is exploited on the destination column (OBJECT affinity:
// the task runs where the destination column is homed; columns are
// distributed round-robin for load balance), while cache locality is
// exploited on the source column (TASK affinity: updates sharing a source
// run back-to-back so the source stays in the cache).
//
// We factor a dense SPD matrix A into L·Lᵀ column by column; column updates
// with a completed source commute, so the dataflow is exactly the paper's:
// a column that has received all updates from its left is "completed"
// (scaled by its diagonal) and then spawns updates to every column on its
// right.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::gauss {

enum class Variant {
  kBase,        ///< Locality-blind round-robin scheduling.
  kObjectOnly,  ///< OBJECT affinity on the destination column only.
  kTaskObject,  ///< Figure 3: TASK on source + OBJECT on destination.
};

const char* variant_name(Variant v);

struct Config {
  int n = 320;                ///< Matrix dimension (one column per task set).
  Variant variant = Variant::kTaskObject;
  bool distribute = true;     ///< Round-robin column distribution.
  std::uint64_t seed = 1;     ///< SPD matrix generator seed.
};

struct Result {
  apps::RunResult run;
  double residual = 0.0;  ///< max |A - L·Lᵀ| over all entries.
};

/// Scheduler policy matching the variant (Base disables affinity hints).
sched::Policy policy_for(Variant v);

/// Factor a generated SPD matrix under `cfg` using `rt`; validates L·Lᵀ = A.
Result run(Runtime& rt, const Config& cfg);

/// Serial reference: plain column Cholesky of the same generated matrix;
/// returns the max residual (used by tests to validate the generator/math).
double serial_residual(const Config& cfg);

}  // namespace cool::apps::gauss
