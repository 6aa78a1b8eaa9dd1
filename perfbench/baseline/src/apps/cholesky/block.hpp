// Block Cholesky — Cholesky factorization with the matrix represented as a
// set of blocks instead of panels (paper §6.4, Figure 16b; Rothberg &
// Gupta's block method).
//
// The N×N SPD matrix is a B×B grid of s×s blocks, factored with the usual
// block dataflow:
//   factor(k):      A[k][k] -> L[k][k]               (dense Cholesky)
//   solve(i,k):     A[i][k] -> L[i][k] = A[i][k]·L[k][k]⁻ᵀ
//   update(i,j,k):  A[i][j] -= L[i][k]·L[j][k]ᵀ      (i ≥ j > k)
// tracked by per-operation dependency counters under a DAG monitor.
//
// Affinity hints mirror the panel code: OBJECT on the destination block
// (blocks are distributed block-cyclically), TASK on the k-column source
// block so updates sharing a source run back-to-back. The paper reports the
// COOL version *beating* the hand-coded ANL program here thanks to better
// dynamic load balance — the Base/Affinity comparison in the bench shows the
// same effect.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"

namespace cool::apps::cholesky {

enum class BlockVariant {
  kBase,      ///< Round-robin tasks, whole matrix on processor 0.
  kDistrAff,  ///< Block-cyclic distribution + TASK/OBJECT affinity hints.
};

const char* block_variant_name(BlockVariant v);

struct BlockConfig {
  int blocks = 12;       ///< B: the matrix is B×B blocks.
  int block_size = 24;   ///< s: each block is s×s doubles.
  /// Block bandwidth: block (i,j) is structurally non-zero iff i-j <= band.
  /// 0 selects a dense matrix (all blocks). Banded structure is closed under
  /// Cholesky (no fill outside the band), so the sparse dataflow skips the
  /// corresponding solves and updates entirely — the paper's block method
  /// factored sparse matrices.
  int band = 0;
  BlockVariant variant = BlockVariant::kDistrAff;
  std::uint64_t seed = 5;
};

struct BlockResult {
  apps::RunResult run;
  double residual = 0.0;  ///< max |A - L·Lᵀ| (parallel result vs. input).
  std::uint64_t nonzero_blocks = 0;  ///< Structurally non-zero lower blocks.
};

sched::Policy block_policy_for(BlockVariant v);

BlockResult run_block(Runtime& rt, const BlockConfig& cfg);

}  // namespace cool::apps::cholesky
