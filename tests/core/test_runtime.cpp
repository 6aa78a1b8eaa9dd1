#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/cool.hpp"

namespace cool {
namespace {

TEST(Runtime, AllocIsPageAlignedAndZeroed) {
  Runtime rt(SystemConfig{});
  const std::size_t page = rt.machine().page_bytes;
  double* d = rt.alloc_array<double>(3, /*home=*/0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % page, 0u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(d[i], 0.0);
}

TEST(Runtime, DistinctAllocationsOnDistinctPages) {
  Runtime rt(SystemConfig{});
  char* a = rt.alloc_array<char>(1, 0);
  char* b = rt.alloc_array<char>(1, 1);
  const auto page = rt.machine().page_bytes;
  EXPECT_NE(reinterpret_cast<std::uintptr_t>(a) / page,
            reinterpret_cast<std::uintptr_t>(b) / page);
  EXPECT_EQ(rt.home(a), 0u);
  EXPECT_EQ(rt.home(b), 1u);
}

TEST(Runtime, PlacedAllocationModuloP) {
  SystemConfig cfg;
  cfg.machine = topo::MachineConfig::dash(8);
  Runtime rt(cfg);
  char* a = rt.alloc_array<char>(64, /*home=*/13);  // 13 mod 8 == 5
  EXPECT_EQ(rt.home(a), 5u);
}

TEST(Runtime, SetupMigrateRebinds) {
  Runtime rt(SystemConfig{});
  int* a = rt.alloc_array<int>(4096, 0);
  rt.migrate(a, 9, 4096 * sizeof(int));
  EXPECT_EQ(rt.home(a), 9u);
  EXPECT_EQ(rt.home(a + 4095), 9u);
}

TEST(Runtime, EmptyAllocationThrows) {
  Runtime rt(SystemConfig{});
  EXPECT_THROW(rt.alloc_bytes(0, 0), util::Error);
}

TEST(Runtime, RunTwiceAccumulates) {
  SystemConfig cfg;
  cfg.machine = topo::MachineConfig::dash(2);
  Runtime rt(cfg);
  int runs = 0;
  auto mk = [](int* r) -> TaskFn {
    auto& c = co_await self();
    c.work(100);
    ++*r;
  };
  rt.run(mk(&runs));
  const auto t1 = rt.sim_time();
  rt.run(mk(&runs));
  EXPECT_EQ(runs, 2);
  EXPECT_GT(rt.sim_time(), t1);  // clocks continue across runs
  EXPECT_EQ(rt.tasks_completed(), 2u);
}

TEST(Runtime, MonitorNullUnderThreads) {
  SystemConfig cfg;
  cfg.mode = SystemConfig::Mode::kThreads;
  cfg.machine = topo::MachineConfig::dash(2);
  Runtime rt(cfg);
  EXPECT_EQ(rt.monitor(), nullptr);
  EXPECT_EQ(rt.sim_time(), 0u);
}

TEST(Runtime, InvalidMachineRejected) {
  SystemConfig cfg;
  cfg.machine.n_procs = 0;
  EXPECT_THROW(Runtime rt(cfg), util::Error);
}

TEST(Runtime, ArenaBeyondPageMapRejected) {
  SystemConfig cfg;
  cfg.arena_bytes = (mem::PageMap::kMaxPages + 1) * cfg.machine.page_bytes;
  EXPECT_THROW(Runtime rt(cfg), util::Error);
}

TEST(Runtime, SameProgramBothEngines) {
  // The identical COOL program must produce identical results under the
  // simulator and under real threads.
  auto program = [](std::uint32_t procs, SystemConfig::Mode mode) {
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.machine = topo::MachineConfig::dash(procs);
    Runtime rt(cfg);
    auto* sums = rt.alloc_array<long>(64, 0);
    rt.run([](long* s) -> TaskFn {
      auto& c = co_await self();
      TaskGroup waitfor;
      for (int i = 0; i < 64; ++i) {
        c.spawn(Affinity::object(&s[i]), waitfor, [](long* slot, int v) -> TaskFn {
          auto& cc = co_await self();
          cc.update(slot, sizeof *slot);
          *slot = v * v;
        }(&s[i], i));
      }
      co_await c.wait(waitfor);
    }(sums));
    long total = 0;
    for (int i = 0; i < 64; ++i) total += sums[i];
    return total;
  };
  const long sim = program(8, SystemConfig::Mode::kSim);
  const long thr = program(8, SystemConfig::Mode::kThreads);
  EXPECT_EQ(sim, thr);
  EXPECT_EQ(sim, 64L * 63 * 127 / 6);  // sum of squares 0..63
}

}  // namespace
}  // namespace cool
