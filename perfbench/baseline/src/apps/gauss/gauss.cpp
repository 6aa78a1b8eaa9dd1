#include "apps/gauss/gauss.hpp"

#include <cmath>
#include <cstdio>
#include <deque>

#include "common/rng.hpp"

namespace cool::apps::gauss {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBase:
      return "Base";
    case Variant::kObjectOnly:
      return "ObjectAff";
    case Variant::kTaskObject:
      return "Task+ObjectAff";
  }
  return "?";
}

sched::Policy policy_for(Variant v) {
  sched::Policy p;
  p.honor_affinity = v != Variant::kBase;
  return p;
}

namespace {

/// Generate a well-conditioned SPD matrix in column-major order:
/// A = B·Bᵀ + n·I with B uniform in [0,1).
std::vector<double> make_spd(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n) * n);
  for (auto& x : b) x = rng.next_double();
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double s = 0.0;
      for (int k = 0; k < n; ++k) {
        s += b[static_cast<std::size_t>(i) * n + k] *
             b[static_cast<std::size_t>(j) * n + k];
      }
      if (i == j) s += n;
      a[static_cast<std::size_t>(j) * n + i] = s;  // column j, row i
      a[static_cast<std::size_t>(i) * n + j] = s;
    }
  }
  return a;
}

/// Shared state of one factorization run (the COOL "program globals").
struct App {
  Runtime* rt = nullptr;
  Config cfg;
  int n = 0;
  std::vector<double*> col;     ///< col[j]: n doubles, page-aligned.
  std::deque<Mutex> mu;         ///< Per-column monitor (mutex functions).
  std::vector<int> pending;     ///< Updates still owed to each column.
  TaskGroup group;              ///< The waitfor scope for the whole factor.

  Affinity update_affinity(int dst, int src) const {
    switch (cfg.variant) {
      case Variant::kBase:
        return Affinity::none();
      case Variant::kObjectOnly:
        return Affinity::object(col[static_cast<std::size_t>(dst)]);
      case Variant::kTaskObject:
        return Affinity::task_object(col[static_cast<std::size_t>(src)],
                                     col[static_cast<std::size_t>(dst)]);
    }
    return Affinity::none();
  }
};

TaskFn update_col(App* a, int dst, int src);

/// "Column j is ready": scale it by its diagonal, then produce the updates it
/// owes to every column on its right (the paper's CompletePanel analogue).
TaskFn complete_col(App* a, int j) {
  auto& c = co_await self();
  const int n = a->n;
  double* cj = a->col[static_cast<std::size_t>(j)];

  c.update(&cj[j], static_cast<std::size_t>(n - j) * sizeof(double));
  const double d = std::sqrt(cj[j]);
  cj[j] = d;
  for (int i = j + 1; i < n; ++i) cj[i] /= d;
  c.work(static_cast<std::uint64_t>(n - j) * 10);  // sqrt + divide per element

  for (int k = j + 1; k < n; ++k) {
    c.spawn(a->update_affinity(k, j), a->group, update_col(a, k, j));
  }
}

/// cmod(dst, src): dst -= L[dst][src] * src  (rows dst..n). A COOL
/// `parallel mutex` function on the destination column.
TaskFn update_col(App* a, int dst, int src) {
  auto& c = co_await self();
  auto g = co_await c.lock(a->mu[static_cast<std::size_t>(dst)]);
  const int n = a->n;
  double* s = a->col[static_cast<std::size_t>(src)];
  double* d = a->col[static_cast<std::size_t>(dst)];
  const std::size_t len = static_cast<std::size_t>(n - dst) * sizeof(double);

  c.read(&s[dst], len);
  c.update(&d[dst], len);
  const double m = s[dst];
  for (int i = dst; i < n; ++i) d[i] -= m * s[i];
  c.work(static_cast<std::uint64_t>(n - dst) * 8);  // multiply-add per element

  if (--a->pending[static_cast<std::size_t>(dst)] == 0) {
    c.spawn(Affinity::object(d), a->group, complete_col(a, dst));
  }
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  c.spawn(Affinity::object(a->col[0]), a->group, complete_col(a, 0));
  co_await c.wait(a->group);
}

double residual_of(const std::vector<double>& a_orig,
                   const std::vector<double>& l_cols, int n) {
  // max_{i>=j} | A[i][j] - sum_k L[i][k] L[j][k] |
  double worst = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      double s = 0.0;
      for (int k = 0; k <= j; ++k) {
        s += l_cols[static_cast<std::size_t>(k) * n + i] *
             l_cols[static_cast<std::size_t>(k) * n + j];
      }
      const double diff =
          std::fabs(a_orig[static_cast<std::size_t>(j) * n + i] - s);
      worst = std::max(worst, diff);
    }
  }
  return worst;
}

}  // namespace

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.n >= 2, "gauss: matrix must be at least 2x2");
  const int n = cfg.n;
  const auto a_orig = make_spd(n, cfg.seed);

  App app;
  app.rt = &rt;
  app.cfg = cfg;
  app.n = n;
  app.col.resize(static_cast<std::size_t>(n));
  app.pending.assign(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    // Each column on its own page(s); distributed round-robin like the
    // paper's column distribution, or all on processor 0 when disabled.
    const std::int64_t home = cfg.distribute ? j : 0;
    app.col[static_cast<std::size_t>(j)] =
        rt.alloc_array<double>(static_cast<std::size_t>(n), home);
    for (int i = 0; i < n; ++i) {
      app.col[static_cast<std::size_t>(j)][i] =
          a_orig[static_cast<std::size_t>(j) * n + i];
    }
    app.pending[static_cast<std::size_t>(j)] = j;
  }
  for (int j = 0; j < n; ++j) app.mu.emplace_back();

  {
    char name[24];
    for (int j = 0; j < n; ++j) {
      std::snprintf(name, sizeof name, "col[%d]", j);
      rt.profile_register(name, app.col[static_cast<std::size_t>(j)],
                          static_cast<std::size_t>(n) * sizeof(double));
    }
  }

  rt.run(root_task(&app));

  // Gather L back into a dense buffer for validation (zero the upper part).
  std::vector<double> l(static_cast<std::size_t>(n) * n, 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      l[static_cast<std::size_t>(j) * n + i] =
          app.col[static_cast<std::size_t>(j)][i];
    }
  }

  Result res;
  res.residual = residual_of(a_orig, l, n);
  double checksum = 0.0;
  for (int j = 0; j < n; ++j) {
    checksum += l[static_cast<std::size_t>(j) * n + j];
  }
  res.run = collect(rt, checksum);
  return res;
}

double serial_residual(const Config& cfg) {
  const int n = cfg.n;
  auto a = make_spd(n, cfg.seed);
  const auto a_orig = a;
  // Plain column Cholesky, in place (columns of the lower triangle).
  for (int j = 0; j < n; ++j) {
    double& diag = a[static_cast<std::size_t>(j) * n + j];
    diag = std::sqrt(diag);
    for (int i = j + 1; i < n; ++i) {
      a[static_cast<std::size_t>(j) * n + i] /= diag;
    }
    for (int k = j + 1; k < n; ++k) {
      const double m = a[static_cast<std::size_t>(j) * n + k];
      for (int i = k; i < n; ++i) {
        a[static_cast<std::size_t>(k) * n + i] -=
            m * a[static_cast<std::size_t>(j) * n + i];
      }
    }
  }
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < j; ++i) a[static_cast<std::size_t>(j) * n + i] = 0.0;
  }
  return residual_of(a_orig, a, n);
}

}  // namespace cool::apps::gauss
