// Panel Cholesky — sparse Cholesky factorization with panels (paper §6.3,
// Figures 12–15; Rothberg & Gupta's panel representation).
//
// Columns with identical non-zero structure form panels. Each panel receives
// updates from relevant panels to its left; once all updates have arrived it
// becomes "ready" (CompletePanel), and then updates the panels to its right
// (UpdatePanel — a `parallel mutex` function on the destination panel, with
// affinity(src, TASK) + affinity(this, OBJECT); see paper Figure 13).
//
// The sparse structure is generated synthetically (a random elimination-DAG
// with paper-like fan-out); the numeric content is integer-valued doubles so
// the parallel result matches the serial reference *exactly* regardless of
// the order in which commuting updates are applied.
//
// Variants reproduce the Figure 14 curves:
//   Base                round-robin tasks, all panels on processor 0
//   Distr               panels distributed round-robin, scheduling still blind
//   Distr+Aff           + the Figure 13 affinity hints
//   Distr+Aff+Cluster   + stealing restricted to the thief's cluster
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::cholesky {

enum class PanelVariant {
  kBase,
  kDistr,
  kDistrAff,
  kDistrAffCluster,
};

const char* panel_variant_name(PanelVariant v);

struct PanelConfig {
  int n_panels = 192;
  int min_cols = 6, max_cols = 14;     ///< Columns per panel (supernode width).
  int row_scale = 3;                   ///< rows(p) ~ (n_panels - p) * scale.
  int parent_span = 10;                ///< Parent chosen within this distance.
  double extra_edge_prob = 0.35;       ///< Ancestor fill edges (fan-out).
  int extra_span = 24;                 ///< Max ancestor hops for fill edges.
  PanelVariant variant = PanelVariant::kDistrAff;
  std::uint64_t seed = 23;
};

struct PanelResult {
  apps::RunResult run;
  double checksum = 0.0;   ///< Sum over all panel data (exact integer math).
  std::uint64_t updates = 0;  ///< Number of UpdatePanel tasks.
};

/// Scheduling policy for a variant. `n_procs` decides whether cluster-only
/// stealing is meaningful (it is vacuous — and rejected by validate_policy —
/// on a machine with a single cluster).
sched::Policy panel_policy_for(PanelVariant v, std::uint32_t n_procs = 32);

PanelResult run_panel(Runtime& rt, const PanelConfig& cfg);

/// Serial reference: identical structure and arithmetic in topological order.
double panel_serial_checksum(const PanelConfig& cfg);

}  // namespace cool::apps::cholesky
