#include "apps/synth/multiobj.hpp"

namespace cool::apps::multiobj {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kFirstObject:
      return "first-object";
    case Strategy::kWeighted:
      return "size-weighted";
    case Strategy::kWeightedPrefetch:
      return "weighted+prefetch";
  }
  return "?";
}

sched::Policy policy_for(Strategy s) {
  sched::Policy p;
  p.multi_object_placement = s != Strategy::kFirstObject;
  p.prefetch_objects = s == Strategy::kWeightedPrefetch;
  return p;
}

namespace {

struct App {
  Config cfg;
  std::vector<double*> small_obj;
  std::vector<double*> large_obj;
  std::size_t small_len = 0;
  std::size_t large_len = 0;
};

TaskFn pair_task(App* a, int i) {
  auto& c = co_await self();
  double* s = a->small_obj[static_cast<std::size_t>(i)];
  double* l = a->large_obj[static_cast<std::size_t>(i)];
  c.read(s, a->small_len * sizeof(double));
  c.read(l, a->large_len * sizeof(double));
  double acc = 0.0;
  for (std::size_t k = 0; k < a->small_len; k += 16) acc += s[k];
  for (std::size_t k = 0; k < a->large_len; k += 16) acc += l[k];
  s[0] = acc;
  c.write(s, sizeof(double));
  c.work((a->small_len + a->large_len) * 2);
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  TaskGroup waitfor;
  for (int k = 0; k < a->cfg.tasks_per_pair; ++k) {
    for (int i = 0; i < a->cfg.pairs; ++i) {
      // The small object is listed first — the paper's fallback follows it;
      // the §8 heuristic follows the bytes.
      const Affinity aff = Affinity::objects(
          {Affinity::ref(a->small_obj[static_cast<std::size_t>(i)],
                         a->small_len * sizeof(double)),
           Affinity::ref(a->large_obj[static_cast<std::size_t>(i)],
                         a->large_len * sizeof(double))});
      c.spawn(aff, waitfor, pair_task(a, i));
    }
  }
  co_await c.wait(waitfor);
}

}  // namespace

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.pairs >= 1 && cfg.tasks_per_pair >= 1, "multiobj: empty");
  const auto P = rt.machine().n_procs;
  App app;
  app.cfg = cfg;
  app.small_len = cfg.small_kb * 1024 / sizeof(double);
  app.large_len = cfg.large_kb * 1024 / sizeof(double);
  for (int i = 0; i < cfg.pairs; ++i) {
    // Deliberately home the pair's halves on different processors.
    app.small_obj.push_back(
        rt.alloc_array<double>(app.small_len, i % static_cast<int>(P)));
    app.large_obj.push_back(rt.alloc_array<double>(
        app.large_len, (i * 7 + 3) % static_cast<int>(P)));
    for (std::size_t k = 0; k < app.small_len; ++k) {
      app.small_obj.back()[k] = static_cast<double>(k % 13);
    }
    for (std::size_t k = 0; k < app.large_len; ++k) {
      app.large_obj.back()[k] = static_cast<double>(k % 7);
    }
  }

  rt.run(root_task(&app));

  Result res;
  for (int i = 0; i < cfg.pairs; ++i) {
    res.checksum += app.small_obj[static_cast<std::size_t>(i)][0];
  }
  res.run = collect(rt, res.checksum);
  return res;
}

}  // namespace cool::apps::multiobj
