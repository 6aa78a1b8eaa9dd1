// The four pinned workloads and their output checks.
//
// Each workload is a full-size simulation chosen to load a different layer
// of the simulator (see README.md): barneshut_p32 the memsim hit path,
// ocean_p32 the memsim miss/directory/writeback paths, txn_skew_adapt the
// engine's dispatch, observer taps and adaptive epochs, forkjoin_steal the
// scheduler's steal scan. Seeds come from the command line; the simulator
// receives only the generated configurations and inputs.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "apps/barneshut/barneshut.hpp"
#include "apps/ocean/ocean.hpp"
#include "apps/txn/txn.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "load/arrivals.hpp"

namespace perfbench {

using namespace cool;

// --- shared helpers ---------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Spans::open(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const double t = seconds_between(origin_, Clock::now());
  spans_.push_back({std::move(name), t, t, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s =
      seconds_between(origin_, Clock::now());
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::string Spans::to_json(const std::string& workload) const {
  std::string out = "{\"workload\": \"" + workload + "\", \"spans\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d}%s\n",
                  i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

void Checks::record(const std::string& name, const std::string& failure) {
  ++n_;
  if (!failure.empty()) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s: %s\n", name.c_str(),
                 failure.c_str());
  }
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string digest_diff(const Digest& want, const Digest& got) {
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= want.size()) return "unexpected statistic " + got[i].first;
    if (i >= got.size()) return "missing statistic " + want[i].first;
    if (want[i].first != got[i].first) {
      return "statistic " + want[i].first + " replaced by " + got[i].first;
    }
    if (want[i].second != got[i].second) {
      return want[i].first + ": expected " + std::to_string(want[i].second) +
             ", got " + std::to_string(got[i].second);
    }
  }
  return "";
}

std::string digest_text(const Digest& d) {
  std::string out;
  for (const auto& [k, v] : d) out += k + " " + std::to_string(v) + "\n";
  return out;
}

bool parse_digest(const std::string& text, Digest& out) {
  out.clear();
  std::istringstream in(text);
  std::string key;
  std::uint64_t v = 0;
  while (in >> key) {
    if (!(in >> v)) return false;
    out.emplace_back(key, v);
  }
  return !out.empty();
}

std::uint64_t Workload::refs(const Runtime& rt) {
  return rt.monitor() != nullptr ? rt.monitor()->total().accesses() : 0;
}

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Seed n of a workload stream: the app's own default at kDefaultSeed, an
/// odd-multiplier step away from it otherwise.
std::uint64_t derive(std::uint64_t app_default, std::uint64_t seed) {
  return app_default + (seed - kDefaultSeed) * 0x9e3779b97f4a7c15ull;
}

std::string all_completed(const Runtime& rt) {
  return unless(rt.tasks_completed() == rt.sched_stats().spawned,
                std::to_string(rt.tasks_completed()) + " of " +
                    std::to_string(rt.sched_stats().spawned) + " completed");
}

SystemConfig machine_config(std::uint32_t procs, const sched::Policy& pol) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = pol;
  return sc;
}

// --- barneshut_p32 ----------------------------------------------------------

class BarnesHut final : public Workload {
 public:
  explicit BarnesHut(std::uint64_t seed) {
    cfg_.n_bodies = 4096;
    cfg_.steps = 2;
    cfg_.variant = apps::barneshut::Variant::kDistrAff;
    cfg_.seed = derive(cfg_.seed, seed);
  }
  SystemConfig config() const override {
    return machine_config(32, apps::barneshut::policy_for(cfg_.variant));
  }
  void run(Runtime& rt) override { res_ = apps::barneshut::run(rt, cfg_); }
  void check(const Runtime& rt, Checks& c) override {
    // theta = 0.5 with monopole cells: sampled relative force errors stay
    // well under 5% on Plummer-like inputs.
    c.expect("force_error_within_theta_bound", [&] {
      return unless(std::isfinite(res_.max_force_error) &&
                        res_.max_force_error < 0.05,
                    "max relative force error " +
                        std::to_string(res_.max_force_error));
    });
    c.expect("energy_finite", [&] {
      return unless(std::isfinite(res_.energy) && res_.energy > 0.0,
                    "kinetic energy " + std::to_string(res_.energy));
    });
    c.expect("all_tasks_completed", [&] { return all_completed(rt); });
    tasks_ = rt.tasks_completed();
  }
  std::uint64_t units() const override { return tasks_; }
  std::uint64_t failed_units() const override { return 0; }
  void digest_extra(Digest& d) const override {
    d.emplace_back("barneshut.energy_bits", bits_of(res_.energy));
  }

 private:
  apps::barneshut::Config cfg_;
  apps::barneshut::Result res_;
  std::uint64_t tasks_ = 0;
};

// --- ocean_p32 --------------------------------------------------------------

class Ocean final : public Workload {
 public:
  explicit Ocean(std::uint64_t seed) {
    cfg_.n = 512;
    cfg_.grids = 8;
    cfg_.steps = 4;
    cfg_.variant = apps::ocean::Variant::kDistr;
    cfg_.seed = derive(cfg_.seed, seed);
  }
  SystemConfig config() const override {
    return machine_config(32, apps::ocean::policy_for(cfg_.variant));
  }
  void run(Runtime& rt) override { res_ = apps::ocean::run(rt, cfg_); }
  void check(const Runtime& rt, Checks& c) override {
    c.expect("checksum_equals_serial", [&] {
      const double serial = apps::ocean::serial_checksum(cfg_, 32);
      return unless(bits_of(serial) == bits_of(res_.checksum),
                    "parallel " + std::to_string(res_.checksum) +
                        " vs serial " + std::to_string(serial));
    });
    c.expect("all_tasks_completed", [&] { return all_completed(rt); });
    tasks_ = rt.tasks_completed();
  }
  std::uint64_t units() const override { return tasks_; }
  std::uint64_t failed_units() const override { return 0; }
  void digest_extra(Digest& d) const override {
    d.emplace_back("ocean.checksum_bits", bits_of(res_.checksum));
  }

 private:
  apps::ocean::Config cfg_;
  apps::ocean::Result res_;
  std::uint64_t tasks_ = 0;
};

// --- txn_skew_adapt ---------------------------------------------------------

class TxnSkewAdapt final : public Workload {
 public:
  explicit TxnSkewAdapt(std::uint64_t seed) {
    cfg_.warehouses = 14;
    cfg_.theta = 1.2;
    cfg_.arrivals = serving_arrivals(seed);
    cfg_.key_seed = derive(cfg_.key_seed, seed);
  }
  SystemConfig config() const override {
    SystemConfig sc = machine_config(8, apps::txn::policy_for(cfg_));
    sc.req_trace = true;
    sc.adapt = true;
    sc.adapt_policy.latency_target_cycles = 3000;
    return sc;
  }
  void make_inputs(Runtime& rt) override {
    (void)rt;
    arrivals_ = load::generate_arrivals(cfg_.arrivals);
  }
  void run(Runtime& rt) override { res_ = apps::txn::run(rt, cfg_); }
  void check(const Runtime& rt, Checks& c) override {
    const std::uint64_t n = cfg_.arrivals.n_requests;
    const load::AdmissionLedger& l = res_.ledger;
    c.expect("arrival_trace_generated", [&] {
      return unless(arrivals_.size() == n &&
                        std::is_sorted(arrivals_.begin(), arrivals_.end()),
                    std::to_string(arrivals_.size()) + " stamps");
    });
    c.expect("ledger_conserved", [&] {
      return unless(l.generated == n && l.admitted == n && l.completed == n,
                    "generated " + std::to_string(l.generated) +
                        " admitted " + std::to_string(l.admitted) +
                        " completed " + std::to_string(l.completed));
    });
    c.expect("orders_equal_requests", [&] {
      return unless(res_.orders == n, std::to_string(res_.orders) + " orders");
    });
    c.expect("breakdown_sums_to_latency", [&] {
      const obs::RequestTraceRecorder* rec = rt.request_trace();
      failed_ = 0;
      for (std::uint32_t r = 0; r < n; ++r) {
        const obs::ReqStat* s = rec != nullptr ? &rec->stat(r) : nullptr;
        const bool ok = s != nullptr && s->finalized &&
                        r < arrivals_.size() && s->arrival == arrivals_[r] &&
                        s->completion >= s->arrival &&
                        s->queue_wait + s->service + s->steal_penalty ==
                            s->completion - s->arrival;
        if (!ok) ++failed_;
      }
      return unless(failed_ == 0,
                    std::to_string(failed_) + " requests whose components "
                                              "do not sum to their latency");
    });
  }
  std::uint64_t units() const override { return cfg_.arrivals.n_requests; }
  std::uint64_t failed_units() const override { return failed_; }
  void digest_extra(Digest& d) const override {
    d.emplace_back("txn.p99_cycles", res_.latency.quantile(0.99));
    d.emplace_back("txn.hot_requests", res_.hot_requests);
    d.emplace_back("txn.stock_moved", res_.stock_moved);
  }
  const std::vector<std::uint64_t>* arrivals() const override {
    return &arrivals_;
  }

 private:
  apps::txn::Config cfg_;
  apps::txn::Result res_;
  std::vector<std::uint64_t> arrivals_;
  std::uint64_t failed_ = 0;
};

// --- forkjoin_steal ---------------------------------------------------------

/// Fork-join over a shared input: one task spawns waves of unhinted tasks;
/// each reads a slice of the input and writes one result slot. Unhinted
/// tasks queue on the spawner, so every other processor steals them.
class ForkJoinSteal final : public Workload {
 public:
  static constexpr int kWaves = 6;
  static constexpr int kTasksPerWave = 8192;
  static constexpr int kSlice = 8;               ///< Doubles read per task.
  static constexpr std::size_t kInput = 1 << 16;  ///< Doubles (512 KiB).

  explicit ForkJoinSteal(std::uint64_t seed)
      : seed_(derive(0xf0f0c001ull, seed)) {}
  SystemConfig config() const override {
    return machine_config(32, sched::Policy{});
  }
  void make_inputs(Runtime& rt) override {
    util::Rng rng(seed_);
    in_ = rt.alloc_array<double>(kInput);
    for (std::size_t i = 0; i < kInput; ++i) in_[i] = rng.next_double() - 0.5;
    constexpr std::size_t n = kWaves * kTasksPerWave;
    out_ = rt.alloc_array<double>(n);
    off_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      off_[i] = static_cast<std::uint32_t>(rng.next_below(kInput - kSlice));
    }
    runs_.assign(n, 0);
  }
  void run(Runtime& rt) override { rt.run(root(this)); }
  void check(const Runtime& rt, Checks& c) override {
    constexpr std::size_t n = kWaves * kTasksPerWave;
    std::uint64_t wrong = 0;
    std::uint64_t not_once = 0;
    c.expect("results_equal_serial", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        double want = 0.0;
        for (int k = 0; k < kSlice; ++k) want += in_[off_[i] + k];
        if (bits_of(want) != bits_of(out_[i])) ++wrong;
      }
      return unless(wrong == 0, std::to_string(wrong) + " result slots differ");
    });
    c.expect("each_task_runs_once", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (runs_[i] != 1) ++not_once;
      }
      return unless(not_once == 0, std::to_string(not_once) +
                                       " tasks did not run exactly once");
    });
    failed_ = std::max(wrong, not_once);
    const sched::SchedStats s = rt.sched_stats();
    // Every enqueue (spawn or resume of a blocked waiter) is acquired once,
    // either popped by its server or stolen.
    c.expect("acquired_equals_enqueued", [&] {
      return unless(s.pops + s.tasks_stolen == s.spawned + s.resumes,
                    "pops " + std::to_string(s.pops) + " + stolen " +
                        std::to_string(s.tasks_stolen) + " vs spawned " +
                        std::to_string(s.spawned) + " + resumes " +
                        std::to_string(s.resumes));
    });
    c.expect("spawned_equals_tasks", [&] {
      return unless(s.spawned == n + 1,
                    std::to_string(s.spawned) + " spawned");
    });
  }
  std::uint64_t units() const override { return kWaves * kTasksPerWave; }
  std::uint64_t failed_units() const override { return failed_; }

 private:
  static TaskFn leaf(ForkJoinSteal* w, std::size_t slot) {
    auto& c = co_await self();
    const double* src = &w->in_[w->off_[slot]];
    c.read(src, kSlice * sizeof(double));
    double sum = 0.0;
    for (int k = 0; k < kSlice; ++k) sum += src[k];
    c.write(&w->out_[slot], sizeof(double));
    w->out_[slot] = sum;
    ++w->runs_[slot];
  }
  static TaskFn root(ForkJoinSteal* w) {
    auto& c = co_await self();
    for (int wave = 0; wave < kWaves; ++wave) {
      TaskGroup g;
      for (int i = 0; i < kTasksPerWave; ++i) {
        const auto slot = static_cast<std::size_t>(wave) * kTasksPerWave +
                          static_cast<std::size_t>(i);
        c.spawn(Affinity::none(), g, leaf(w, slot));
      }
      co_await c.wait(g);
    }
  }

  std::uint64_t seed_;
  double* in_ = nullptr;
  double* out_ = nullptr;
  std::vector<std::uint32_t> off_;
  std::vector<std::uint32_t> runs_;
  std::uint64_t failed_ = 0;
};

}  // namespace

load::ArrivalConfig serving_arrivals(std::uint64_t seed) {
  load::ArrivalConfig a;
  a.kind = load::ArrivalKind::kPoisson;
  a.rate_per_kcycle = 4.0;
  a.n_requests = 100000;
  a.seed = derive(a.seed, seed);
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "barneshut_p32") return std::make_unique<BarnesHut>(seed);
  if (name == "ocean_p32") return std::make_unique<Ocean>(seed);
  if (name == "txn_skew_adapt") return std::make_unique<TxnSkewAdapt>(seed);
  if (name == "forkjoin_steal") return std::make_unique<ForkJoinSteal>(seed);
  return nullptr;
}

Digest digest_of(const Runtime& rt, const Workload& w) {
  Digest d;
  d.emplace_back("sim_cycles", rt.sim_time());
  d.emplace_back("tasks", rt.tasks_completed());
  const mem::ProcCounters m =
      rt.monitor() != nullptr ? rt.monitor()->total() : mem::ProcCounters{};
  d.emplace_back("mem.reads", m.reads);
  d.emplace_back("mem.writes", m.writes);
  static const char* const kSvc[mem::kNumServices] = {
      "l1_hit", "l2_hit", "local_mem", "remote_mem", "local_cache",
      "remote_cache"};
  for (int i = 0; i < mem::kNumServices; ++i) {
    d.emplace_back(std::string("mem.") + kSvc[i], m.serviced[i]);
  }
  d.emplace_back("mem.upgrades", m.upgrades);
  d.emplace_back("mem.invals_sent", m.invals_sent);
  d.emplace_back("mem.writebacks", m.writebacks);
  d.emplace_back("mem.pages_migrated", m.pages_migrated);
  d.emplace_back("mem.latency_cycles", m.latency_cycles);
  const sched::SchedStats s = rt.sched_stats();
  d.emplace_back("sched.spawned", s.spawned);
  d.emplace_back("sched.pops", s.pops);
  d.emplace_back("sched.steals", s.steals);
  d.emplace_back("sched.tasks_stolen", s.tasks_stolen);
  d.emplace_back("sched.failed_steal_scans", s.failed_steal_scans);
  const adaptive::AdaptiveEngine* a = rt.adaptive_engine();
  d.emplace_back("adapt.epochs", a != nullptr ? a->epochs() : 0);
  d.emplace_back("adapt.decisions", a != nullptr ? a->log().size() : 0);
  d.emplace_back("adapt.log_fnv", fnv1a(rt.adaptation_json()));
  w.digest_extra(d);
  return d;
}

}  // namespace perfbench
