#include "load/driver.hpp"

#include <algorithm>
#include <utility>

#include "analysis/invariants.hpp"
#include "common/error.hpp"

namespace cool::load {

Driver::Driver(std::vector<std::uint64_t> arrivals, DriverConfig cfg)
    : arrivals_(std::move(arrivals)), cfg_(cfg) {
  COOL_CHECK(std::is_sorted(arrivals_.begin(), arrivals_.end()),
             "load::Driver: arrival trace must be non-decreasing");
  ledger_.generated = arrivals_.size();
}

TaskFn Driver::pump(PlaceFn place, RequestFn make) {
  // The root task arrives hint-free, and a hint-free task that suspends is
  // fair game for steal_object_tasks and balancer moves — the front-end
  // would drift onto a serving processor mid-trace. Re-spawn the real pump
  // with PROCESSOR affinity on the current processor so it stays pinned
  // (processor-affinity tasks are steal-exempt, and a front-end queue of
  // depth <= 1 never exceeds the average balancer's move threshold).
  auto& c = co_await self();
  TaskGroup root;
  c.spawn(Affinity::processor(static_cast<std::int64_t>(c.proc())), root,
          pump_epochs(std::move(place), std::move(make)));
  co_await c.wait(root);
}

TaskFn Driver::pump_epochs(PlaceFn place, RequestFn make) {
  auto& c = co_await self();
  TaskGroup group;
  const std::uint64_t epoch = cfg_.epoch_cycles == 0 ? 1 : cfg_.epoch_cycles;
  std::size_t i = 0;
  while (i < arrivals_.size()) {
    // Release everything that arrives inside the epoch containing the next
    // pending arrival, at that epoch's end.
    const std::uint64_t window_end = (arrivals_[i] / epoch + 1) * epoch;
    if (window_end > c.now()) {
      c.work(window_end - c.now());  // open loop: wait on the trace clock
    }
    while (i < arrivals_.size() && arrivals_[i] < window_end) {
      const auto id = static_cast<std::uint32_t>(i);
      // Tag every request with its id: free when tracing is off, and the
      // engine's span stamps key off it when a recorder is attached.
      c.spawn_request(place(id), group, id, make(id, arrivals_[i]));
      ++ledger_.admitted;
      if (trace_ != nullptr) {
        // The pump's clock after the spawn charge IS the task's initial
        // ready_time — the admission stamp the decomposition measures
        // queue_wait from.
        trace_->on_admit(id, c.now());
      }
      ++i;
    }
    // Suspend at the epoch boundary. Ctx::work advances the simulated clock
    // without suspending, so without this yield the pump would spawn the
    // whole trace before any request ran (in host order) and the scheduler's
    // queues would hold the entire future: balancers would "move" requests
    // that have not arrived yet. The engine dispatches the minimum-clock
    // processor next, so yielding once per epoch keeps host execution order
    // tracking simulated time and queues only ever hold released arrivals.
    co_await c.yield();
  }
  co_await c.wait(group);
}

void Driver::complete(std::uint32_t id, std::uint64_t now_cycles) {
  COOL_CHECK(id < arrivals_.size(), "load::Driver: completion id out of range");
  const std::uint64_t arrival = arrivals_[id];
  // Dispatch honors TaskDesc::ready_time, so a request never runs before its
  // spawn, which is never before its arrival — guard anyway against model
  // changes.
  const std::uint64_t lat = now_cycles >= arrival ? now_cycles - arrival : 0;
  hist_.record(lat);
  if (arrival >= cfg_.measure_from_cycles) measured_hist_.record(lat);
  completions_.push_back(now_cycles);
  ++ledger_.completed;
  if (now_cycles <= last_arrival()) ++served_in_window_;
  if (trace_ != nullptr) trace_->on_complete(id, now_cycles);
}

std::vector<std::uint64_t> Driver::inflight_samples() const {
  // Reconstructed from the simulated stamps rather than sampled live: the
  // pump coroutine runs host-first (Ctx::work does not suspend), so counters
  // read mid-pump would reflect host order, not simulated time.
  std::vector<std::uint64_t> out;
  if (arrivals_.empty()) return out;
  std::vector<std::uint64_t> done = completions_;
  std::sort(done.begin(), done.end());
  const std::uint64_t epoch = cfg_.epoch_cycles == 0 ? 1 : cfg_.epoch_cycles;
  const std::uint64_t horizon =
      std::max(last_arrival(), done.empty() ? 0 : done.back());
  std::size_t ai = 0;
  std::size_t ci = 0;
  for (std::uint64_t t = epoch; t - epoch < horizon; t += epoch) {
    while (ai < arrivals_.size() && arrivals_[ai] < t) ++ai;
    while (ci < done.size() && done[ci] <= t) ++ci;
    out.push_back(ai - ci);
  }
  return out;
}

void Driver::verify() const {
  analysis::check_admission_ledger(ledger_.generated, ledger_.admitted,
                                   ledger_.completed);
}

}  // namespace cool::load
