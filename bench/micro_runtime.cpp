// Microbenchmarks (google-benchmark) of the runtime primitives the paper
// claims are cheap (§5: placement is "two modulo operations", queues are
// O(1) doubly-linked lists). These measure native host time of the data
// structures themselves, independent of the simulation.
#include <benchmark/benchmark.h>

#include "common/intrusive_list.hpp"
#include "common/rng.hpp"
#include "core/cool.hpp"
#include "memsim/cache.hpp"
#include "memsim/memsystem.hpp"
#include "sched/queues.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace cool;

void BM_IntrusiveListPushPop(benchmark::State& state) {
  struct Node {
    util::ListHook hook;
  };
  std::vector<Node> nodes(64);
  util::IntrusiveList<Node, &Node::hook> list;
  for (auto _ : state) {
    for (auto& n : nodes) list.push_back(&n);
    while (list.pop_front() != nullptr) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_IntrusiveListPushPop);

void BM_QueuePushPop(benchmark::State& state) {
  sched::ServerQueues q(64);
  std::vector<sched::TaskDesc> tasks(64);
  alignas(64) static int objs[64];
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].aff = sched::Affinity::task(&objs[i % 8]);
    tasks[i].aff_key = reinterpret_cast<std::uint64_t>(&objs[i % 8]) / 16;
  }
  for (auto _ : state) {
    for (auto& t : tasks) q.push(&t);
    while (q.pop() != nullptr) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QueuePushPop);

void BM_SchedulerPlaceAcquire(benchmark::State& state) {
  const topo::MachineConfig machine = topo::MachineConfig::dash();
  sched::Scheduler sched(machine, sched::Policy{},
                         [](std::uint64_t a, topo::ProcId) {
                           return static_cast<topo::ProcId>((a >> 12) % 32);
                         });
  std::vector<sched::TaskDesc> tasks(256);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].aff = sched::Affinity::object(
        reinterpret_cast<void*>(0x10000 + i * 4096));
  }
  for (auto _ : state) {
    for (auto& t : tasks) sched.place(&t, 0);
    for (topo::ProcId p = 0; p < 32; ++p) {
      while (sched.acquire(p).task != nullptr) {
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SchedulerPlaceAcquire);

void BM_CacheAccessHit(benchmark::State& state) {
  mem::Cache cache(64 * 1024, 1, 16);
  for (mem::LineAddr l = 0; l < 1024; ++l) cache.insert(l);
  mem::LineAddr l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(l));
    l = (l + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessHit);

void BM_MemSystemAccess(benchmark::State& state) {
  const topo::MachineConfig machine = topo::MachineConfig::dash();
  mem::MemorySystem ms(machine);
  ms.bind_range(0, 1 << 24, 0);
  util::Rng rng(1);
  std::uint64_t now = 0;
  for (auto _ : state) {
    const std::uint64_t addr = rng.next_below(1 << 22) & ~7ull;
    benchmark::DoNotOptimize(
        ms.access(static_cast<topo::ProcId>(addr % 32), addr, 8,
                  (addr & 64) != 0, now));
    now += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSystemAccess);

// Reads sweeping a 128 KiB footprint on one processor: twice the
// direct-mapped L1, half the L2, so after the warm-up sweep every line
// misses L1 and hits L2 (the Barnes-Hut mix is 72 % L2 hits). Exercises the
// read filter's L1 refill.
void BM_MemSystemL2Hit(benchmark::State& state) {
  const topo::MachineConfig machine = topo::MachineConfig::dash();
  mem::MemorySystem ms(machine);
  constexpr std::uint64_t kFootprint = 128 * 1024;
  ms.bind_range(0, kFootprint, 0);
  for (std::uint64_t a = 0; a < kFootprint; a += machine.line_bytes) {
    ms.access(0, a, 8, false, 0);
  }
  std::uint64_t addr = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ms.access(0, addr, 8, false, now));
    addr = (addr + machine.line_bytes) & (kFootprint - 1);
    now += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSystemL2Hit);

void BM_SpawnRunEmptyTasks(benchmark::State& state) {
  // Full engine path: spawn N trivial tasks and drive them to completion.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SystemConfig sc;
    sc.machine = topo::MachineConfig::dash(8);
    Runtime rt(sc);
    rt.run([](int count) -> TaskFn {
      auto& c = co_await self();
      TaskGroup waitfor;
      for (int i = 0; i < count; ++i) {
        c.spawn(Affinity::none(), waitfor, []() -> TaskFn { co_return; }());
      }
      co_await c.wait(waitfor);
    }(n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpawnRunEmptyTasks)->Arg(256)->Arg(4096)->Arg(16384);

void BM_MutexHandoffChain(benchmark::State& state) {
  for (auto _ : state) {
    SystemConfig sc;
    sc.machine = topo::MachineConfig::dash(4);
    Runtime rt(sc);
    auto* mu = new Mutex;
    rt.run([](Mutex* m) -> TaskFn {
      auto& c = co_await self();
      TaskGroup waitfor;
      for (int i = 0; i < 64; ++i) {
        c.spawn(Affinity::none(), waitfor, [](Mutex* mm) -> TaskFn {
          auto& cc = co_await self();
          auto g = co_await cc.lock(*mm);
          cc.work(10);
        }(m));
      }
      co_await c.wait(waitfor);
    }(mu));
    delete mu;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MutexHandoffChain);

}  // namespace

BENCHMARK_MAIN();
