#include "apps/synth/taskmix.hpp"

#include <cstdio>

namespace cool::apps::taskmix {

const char* hint_name(Hint h) {
  switch (h) {
    case Hint::kNone:
      return "(no hint)";
    case Hint::kSimple:
      return "affinity(obj)";
    case Hint::kTask:
      return "affinity(obj,TASK)";
    case Hint::kObject:
      return "affinity(obj,OBJECT)";
    case Hint::kTaskObject:
      return "TASK+OBJECT";
    case Hint::kProcessor:
      return "affinity(n,PROCESSOR)";
  }
  return "?";
}

namespace {

struct App {
  Config cfg;
  std::vector<double*> obj;
  std::size_t obj_doubles = 0;
  std::uint32_t procs = 0;
};

TaskFn touch_task(App* a, int o) {
  auto& c = co_await self();
  double* d = a->obj[static_cast<std::size_t>(o)];
  c.read(d, a->obj_doubles * sizeof(double));
  double acc = 0.0;
  for (std::size_t i = 0; i < a->obj_doubles; i += 8) acc += d[i];
  d[0] = acc;
  c.write(d, sizeof(double));
  c.work(a->obj_doubles / 2);
}

Affinity affinity_for(const App& a, int o) {
  const void* obj = a.obj[static_cast<std::size_t>(o)];
  switch (a.cfg.hint) {
    case Hint::kNone:
      return Affinity::none();
    case Hint::kSimple:
    case Hint::kObject:
      return Affinity::object(obj);
    case Hint::kTask:
      return Affinity::task(obj);
    case Hint::kTaskObject:
      return Affinity::task_object(obj, obj);
    case Hint::kProcessor:
      return Affinity::processor(o % static_cast<int>(a.procs));
  }
  return Affinity::none();
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  TaskGroup waitfor;
  const int M = a->cfg.objects;
  const int K = a->cfg.tasks_per_obj;
  if (a->cfg.interleave) {
    for (int k = 0; k < K; ++k) {
      for (int o = 0; o < M; ++o) {
        c.spawn(affinity_for(*a, o), waitfor, touch_task(a, o));
      }
    }
  } else {
    for (int o = 0; o < M; ++o) {
      for (int k = 0; k < K; ++k) {
        c.spawn(affinity_for(*a, o), waitfor, touch_task(a, o));
      }
    }
  }
  co_await c.wait(waitfor);
}

}  // namespace

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.objects >= 1 && cfg.tasks_per_obj >= 1, "taskmix: empty");
  COOL_CHECK(cfg.obj_kb >= 1, "taskmix: object too small");
  App app;
  app.cfg = cfg;
  app.procs = rt.machine().n_procs;
  app.obj_doubles = cfg.obj_kb * 1024 / sizeof(double);
  for (int o = 0; o < cfg.objects; ++o) {
    app.obj.push_back(rt.alloc_array<double>(app.obj_doubles, o));
    for (std::size_t i = 0; i < app.obj_doubles; ++i) {
      app.obj.back()[i] = static_cast<double>((o + 1) * 3 + i % 17);
    }
    char name[24];
    std::snprintf(name, sizeof name, "obj[%d]", o);
    rt.profile_register(name, app.obj.back(),
                        app.obj_doubles * sizeof(double));
  }

  rt.run(root_task(&app));

  Result res;
  for (int o = 0; o < cfg.objects; ++o) {
    res.checksum += app.obj[static_cast<std::size_t>(o)][0];
  }
  res.run = collect(rt, res.checksum);
  const auto& mem = res.run.mem;
  if (mem.accesses() > 0) {
    res.l1_hit_rate =
        static_cast<double>(
            mem.serviced[static_cast<int>(mem::Service::kL1Hit)]) /
        static_cast<double>(mem.accesses());
  }
  return res;
}

}  // namespace cool::apps::taskmix
