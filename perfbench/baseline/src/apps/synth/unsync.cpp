#include "apps/synth/unsync.hpp"

namespace cool::apps::unsync {

namespace {

struct App {
  Config cfg;
  double* acc = nullptr;     ///< Shared accumulator — the seeded race.
  double* slices = nullptr;  ///< Disjoint per-worker slices — race-free.
  std::size_t slice_len = 0;
  Mutex mu;
};

TaskFn worker(App* a, int id) {
  auto& c = co_await self();
  double* mine = a->slices + static_cast<std::size_t>(id) * a->slice_len;
  for (int r = 0; r < a->cfg.rounds; ++r) {
    c.read(mine, a->slice_len * sizeof(double));
    double sum = 0.0;
    for (std::size_t k = 0; k < a->slice_len; k += 8) sum += mine[k];
    if (a->cfg.synchronized_run) {
      auto g = co_await c.lock(a->mu);
      c.update(a->acc, sizeof(double));
      a->acc[0] += sum;
    } else {
      // Deliberately unsynchronized: siblings carry no happens-before edge,
      // so every pair of workers races on these bytes.
      c.update(a->acc, sizeof(double));
      a->acc[0] += sum;
    }
    co_await c.yield();
  }
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  TaskGroup waitfor;
  for (int i = 0; i < a->cfg.tasks; ++i) {
    // TASK affinity on the accumulator: the reports should name the hint and
    // the set, exercising attribution end to end.
    c.spawn(Affinity::task(a->acc), waitfor, worker(a, i));
  }
  co_await c.wait(waitfor);
}

}  // namespace

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.tasks >= 2, "unsync: need at least two workers to race");
  COOL_CHECK(cfg.rounds >= 1 && cfg.slice_kb >= 1, "unsync: empty workload");
  App app;
  app.cfg = cfg;
  app.slice_len = cfg.slice_kb * 1024 / sizeof(double);
  app.acc = rt.alloc_array<double>(1, 0);
  app.slices = rt.alloc_array<double>(
      app.slice_len * static_cast<std::size_t>(cfg.tasks), -1);
  for (std::size_t k = 0;
       k < app.slice_len * static_cast<std::size_t>(cfg.tasks); ++k) {
    app.slices[k] = static_cast<double>(k % 11);
  }
  app.acc[0] = 0.0;
  rt.profile_register("acc", app.acc, sizeof(double));
  rt.profile_register("slices", app.slices,
                      app.slice_len * static_cast<std::size_t>(cfg.tasks) *
                          sizeof(double));

  rt.run(root_task(&app));

  Result res;
  res.checksum = app.acc[0];
  res.run = collect(rt, res.checksum);
  return res;
}

}  // namespace cool::apps::unsync
