#include "apps/cholesky/block.hpp"

#include <cmath>
#include <cstdio>

#include "common/rng.hpp"

namespace cool::apps::cholesky {

const char* block_variant_name(BlockVariant v) {
  switch (v) {
    case BlockVariant::kBase:
      return "Base";
    case BlockVariant::kDistrAff:
      return "Distr+Aff";
  }
  return "?";
}

sched::Policy block_policy_for(BlockVariant v) {
  sched::Policy p;
  p.honor_affinity = v == BlockVariant::kDistrAff;
  return p;
}

namespace {

struct App {
  BlockConfig cfg;
  int B = 0;
  int s = 0;
  int band = 0;  ///< 0 encodes dense.

  [[nodiscard]] bool exists(int i, int j) const {
    return band == 0 || i - j <= band;
  }
  std::vector<double*> blk;      ///< Lower-triangle blocks, id(i,j) = tri index.
  Mutex dag_mu;                  ///< Protects the dependency counters.
  std::vector<int> dep_factor;   ///< [k]
  std::vector<int> dep_solve;    ///< [id(i,k)]
  std::vector<int> dep_update;   ///< [id(i,j) * B + k]
  TaskGroup group;

  [[nodiscard]] std::size_t id(int i, int j) const {
    return static_cast<std::size_t>(i) * (i + 1) / 2 + static_cast<std::size_t>(j);
  }
  [[nodiscard]] double* block(int i, int j) const { return blk[id(i, j)]; }
  [[nodiscard]] std::size_t uid(int i, int j, int k) const {
    return id(i, j) * static_cast<std::size_t>(B) + static_cast<std::size_t>(k);
  }

  Affinity aff_factor(int k) const {
    return cfg.variant == BlockVariant::kBase ? Affinity::none()
                                              : Affinity::object(block(k, k));
  }
  Affinity aff_solve(int i, int k) const {
    return cfg.variant == BlockVariant::kBase
               ? Affinity::none()
               : Affinity::task_object(block(k, k), block(i, k));
  }
  Affinity aff_update(int i, int j, int k) const {
    return cfg.variant == BlockVariant::kBase
               ? Affinity::none()
               : Affinity::task_object(block(j, k), block(i, j));
  }
};

TaskFn factor_task(App* a, int k);
TaskFn solve_task(App* a, int i, int k);
TaskFn update_task(App* a, int i, int j, int k);

/// Dense Cholesky of the s×s diagonal block, in place (lower triangle).
void factor_math(double* d, int s) {
  for (int c = 0; c < s; ++c) {
    double diag = d[c * s + c];
    for (int t = 0; t < c; ++t) diag -= d[c * s + t] * d[c * s + t];
    COOL_CHECK(diag > 0.0, "block cholesky: matrix not positive definite");
    diag = std::sqrt(diag);
    d[c * s + c] = diag;
    for (int r = c + 1; r < s; ++r) {
      double v = d[r * s + c];
      for (int t = 0; t < c; ++t) v -= d[r * s + t] * d[c * s + t];
      d[r * s + c] = v / diag;
    }
    for (int t = c + 1; t < s; ++t) d[c * s + t] = 0.0;  // zero upper
  }
}

/// X := X · L⁻ᵀ, where L is the factored diagonal block.
void solve_math(double* x, const double* l, int s) {
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      double v = x[r * s + c];
      for (int t = 0; t < c; ++t) v -= x[r * s + t] * l[c * s + t];
      x[r * s + c] = v / l[c * s + c];
    }
  }
}

/// C -= A·Bᵀ (full s×s blocks).
void update_math(double* cblk, const double* ablk, const double* bblk, int s) {
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      double v = 0.0;
      for (int t = 0; t < s; ++t) v += ablk[r * s + t] * bblk[c * s + t];
      cblk[r * s + c] -= v;
    }
  }
}

TaskFn factor_task(App* a, int k) {
  auto& c = co_await self();
  const int s = a->s;
  double* d = a->block(k, k);
  c.update(d, static_cast<std::size_t>(s) * s * sizeof(double));
  factor_math(d, s);
  c.work(static_cast<std::uint64_t>(s) * s * s * 4 / 3);  // s^3/3 flops

  auto g = co_await c.lock(a->dag_mu);
  for (int i = k + 1; i < a->B; ++i) {
    if (!a->exists(i, k)) continue;
    if (--a->dep_solve[a->id(i, k)] == 0) {
      c.spawn(a->aff_solve(i, k), a->group, solve_task(a, i, k));
    }
  }
}

TaskFn solve_task(App* a, int i, int k) {
  auto& c = co_await self();
  const int s = a->s;
  double* x = a->block(i, k);
  const double* l = a->block(k, k);
  c.read(l, static_cast<std::size_t>(s) * s * sizeof(double));
  c.update(x, static_cast<std::size_t>(s) * s * sizeof(double));
  solve_math(x, l, s);
  c.work(static_cast<std::uint64_t>(s) * s * s * 2);  // s^3/2 flops

  auto g = co_await c.lock(a->dag_mu);
  for (int j = k + 1; j <= i; ++j) {
    if (!a->exists(i, j) || !a->exists(j, k)) continue;
    if (--a->dep_update[a->uid(i, j, k)] == 0) {
      c.spawn(a->aff_update(i, j, k), a->group, update_task(a, i, j, k));
    }
  }
  for (int i2 = i + 1; i2 < a->B; ++i2) {
    if (!a->exists(i2, i) || !a->exists(i2, k)) continue;
    if (--a->dep_update[a->uid(i2, i, k)] == 0) {
      c.spawn(a->aff_update(i2, i, k), a->group, update_task(a, i2, i, k));
    }
  }
}

TaskFn update_task(App* a, int i, int j, int k) {
  auto& c = co_await self();
  const int s = a->s;
  double* dst = a->block(i, j);
  const double* lik = a->block(i, k);
  const double* ljk = a->block(j, k);
  c.read(lik, static_cast<std::size_t>(s) * s * sizeof(double));
  c.read(ljk, static_cast<std::size_t>(s) * s * sizeof(double));
  c.update(dst, static_cast<std::size_t>(s) * s * sizeof(double));
  update_math(dst, lik, ljk, s);
  c.work(static_cast<std::uint64_t>(s) * s * s * 8);  // 2·s^3 flops

  auto g = co_await c.lock(a->dag_mu);
  if (i == j) {
    if (--a->dep_factor[static_cast<std::size_t>(j)] == 0) {
      c.spawn(a->aff_factor(j), a->group, factor_task(a, j));
    }
  } else {
    if (--a->dep_solve[a->id(i, j)] == 0) {
      c.spawn(a->aff_solve(i, j), a->group, solve_task(a, i, j));
    }
  }
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  c.spawn(a->aff_factor(0), a->group, factor_task(a, 0));
  co_await c.wait(a->group);
}

}  // namespace

BlockResult run_block(Runtime& rt, const BlockConfig& cfg) {
  COOL_CHECK(cfg.blocks >= 2 && cfg.block_size >= 2, "block: too small");
  const int B = cfg.blocks;
  const int s = cfg.block_size;
  const int N = B * s;
  const auto P = rt.machine().n_procs;

  // Symmetric, strictly diagonally dominant (hence SPD) matrix with the
  // requested block-band sparsity: entries outside the band are exact zeros.
  COOL_CHECK(cfg.band >= 0 && cfg.band < cfg.blocks,
             "block: band must be in [0, blocks)");
  util::Rng rng(cfg.seed);
  std::vector<double> a_full(static_cast<std::size_t>(N) * N, 0.0);
  for (int r = 0; r < N; ++r) {
    for (int c2 = 0; c2 < r; ++c2) {
      // Sparsity by *block* distance, matching the task structure.
      if (cfg.band > 0 && (r / s - c2 / s) > cfg.band) continue;
      const double v = 2.0 * rng.next_double() - 1.0;
      a_full[static_cast<std::size_t>(r) * N + c2] = v;
      a_full[static_cast<std::size_t>(c2) * N + r] = v;
    }
  }
  for (int r = 0; r < N; ++r) {
    double rowsum = 0.0;
    for (int c2 = 0; c2 < N; ++c2) {
      if (c2 != r) rowsum += std::fabs(a_full[static_cast<std::size_t>(r) * N + c2]);
    }
    a_full[static_cast<std::size_t>(r) * N + r] = rowsum + 1.0;
  }

  App app;
  app.cfg = cfg;
  app.B = B;
  app.s = s;
  app.band = cfg.band;
  app.blk.assign(app.id(B - 1, B - 1) + 1, nullptr);
  std::uint64_t nonzero = 0;
  const bool distribute = cfg.variant == BlockVariant::kDistrAff;
  for (int i = 0; i < B; ++i) {
    for (int j = 0; j <= i; ++j) {
      if (!app.exists(i, j)) continue;
      ++nonzero;
      const std::int64_t home =
          distribute ? static_cast<std::int64_t>(app.id(i, j) % P) : 0;
      double* d = rt.alloc_array<double>(
          static_cast<std::size_t>(s) * s, home);
      for (int r = 0; r < s; ++r) {
        for (int c2 = 0; c2 < s; ++c2) {
          d[r * s + c2] = a_full[static_cast<std::size_t>(i * s + r) * N +
                                 (j * s + c2)];
        }
      }
      app.blk[app.id(i, j)] = d;
      char name[28];
      std::snprintf(name, sizeof name, "blk[%d,%d]", i, j);
      rt.profile_register(name, d, static_cast<std::size_t>(s) * s *
                                       sizeof(double));
    }
  }

  // Dependency counters.
  app.dep_factor.assign(static_cast<std::size_t>(B), 0);
  app.dep_solve.assign(app.id(B - 1, B - 1) + 1, 0);
  app.dep_update.assign((app.id(B - 1, B - 1) + 1) * static_cast<std::size_t>(B),
                        0);
  for (int k = 0; k < B; ++k) {
    int deps = 0;
    for (int kk = 0; kk < k; ++kk) {
      if (app.exists(k, kk)) ++deps;  // update(k,k,kk)
    }
    app.dep_factor[static_cast<std::size_t>(k)] = deps;
  }
  for (int i = 0; i < B; ++i) {
    for (int k = 0; k < i; ++k) {
      if (!app.exists(i, k)) continue;
      int deps = 1;  // factor(k)
      for (int kk = 0; kk < k; ++kk) {
        if (app.exists(i, kk) && app.exists(k, kk)) ++deps;  // update(i,k,kk)
      }
      app.dep_solve[app.id(i, k)] = deps;
    }
  }
  for (int i = 0; i < B; ++i) {
    for (int j = 0; j <= i; ++j) {
      if (!app.exists(i, j)) continue;
      for (int k = 0; k < j; ++k) {
        if (!app.exists(i, k) || !app.exists(j, k)) continue;
        app.dep_update[app.uid(i, j, k)] = (i == j) ? 1 : 2;
      }
    }
  }

  rt.run(root_task(&app));

  // Validate: reassemble L and check A ≈ L·Lᵀ.
  std::vector<double> l(static_cast<std::size_t>(N) * N, 0.0);
  for (int i = 0; i < B; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double* d = app.blk[app.id(i, j)];
      if (d == nullptr) continue;
      for (int r = 0; r < s; ++r) {
        for (int c2 = 0; c2 < s; ++c2) {
          const int rr = i * s + r;
          const int cc = j * s + c2;
          if (cc <= rr) l[static_cast<std::size_t>(rr) * N + cc] = d[r * s + c2];
        }
      }
    }
  }
  double residual = 0.0;
  for (int r = 0; r < N; ++r) {
    for (int c2 = 0; c2 <= r; ++c2) {
      double v = 0.0;
      for (int t = 0; t <= c2; ++t) {
        v += l[static_cast<std::size_t>(r) * N + t] *
             l[static_cast<std::size_t>(c2) * N + t];
      }
      residual = std::max(
          residual,
          std::fabs(v - a_full[static_cast<std::size_t>(r) * N + c2]));
    }
  }

  BlockResult res;
  res.residual = residual;
  res.nonzero_blocks = nonzero;
  double checksum = 0.0;
  for (int k = 0; k < B; ++k) {
    const double* d = app.blk[app.id(k, k)];
    for (int t = 0; t < s; ++t) checksum += d[t * s + t];
  }
  res.run = collect(rt, checksum);
  return res;
}

}  // namespace cool::apps::cholesky
