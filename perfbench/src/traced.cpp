// The traced run: per-layer host cost, timed from outside each layer.
//
// One in-situ simulation runs with a recording tap attached (a memory-access
// observer plus a sync observer for spawns and dispatches). The recorded
// stream is replayed in fixed-size chunks, so memory stays bounded however
// long the run, through
//   * a fresh mem::MemorySystem (MemorySystem::access),
//   * a fresh obs::LocalityProfiler and obs::RequestTraceRecorder.
// Each replay is checked against the in-situ counts. The scheduler is driven
// directly through sched::Scheduler::place/acquire (sched_harness.cpp), and
// the adaptive engine's sensor calls and load::generate_arrivals are timed
// on their own.
//
// Replayed time is not in-situ time: a replay runs with other host caches
// and without the rest of the simulator between calls, so no layer's time
// may be derived by subtracting replayed time from the untraced wall time.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <unordered_map>

#include "analysis/sync_observer.hpp"
#include "memsim/memsystem.hpp"
#include "obs/profiler.hpp"
#include "obs/request_trace.hpp"
#include "runner.hpp"
#include "sched_harness.hpp"

namespace perfbench {

using namespace cool;

namespace {

constexpr std::uint32_t kNoRequest = obs::RequestTraceRecorder::kNoRequest;
/// Events per replay chunk (24 B each): bounds the recording's memory.
constexpr std::size_t kChunk = std::size_t{1} << 20;
/// Repetitions of the millisecond probes (arrival generation, Runtime
/// construction); their medians are reported.
constexpr int kProbeReps = 15;

enum class TapKind : std::uint8_t { kRead, kWrite, kInval, kDispatch, kSpawn };

/// One recorded tap event.
struct TapEvent {
  std::uint64_t addr = 0;   ///< Access: line address. Inval: address.
                            ///< Dispatch: affinity-set key. Spawn: task seq.
  std::uint64_t aux = 0;    ///< Access: lo | hi << 32 (offsets in the line).
                            ///< Inval: copies killed. Dispatch, spawn:
                            ///< request id (kNoRequest if none).
  std::uint32_t stall = 0;  ///< Access: stall cycles. Dispatch: requests the
                            ///< in-situ recorder had finalized so far.
  std::uint8_t proc = 0;
  TapKind kind = TapKind::kRead;
  std::uint8_t svc = 0;     ///< Access: mem::Service. Dispatch: HintClass.
  std::uint8_t home = 0;    ///< Access: page home at the time of access.
};
static_assert(sizeof(TapEvent) == 24);

bool is_access(const TapEvent& e) {
  return e.kind == TapKind::kRead || e.kind == TapKind::kWrite;
}

mem::AccessInfo access_info(const TapEvent& e) {
  return {e.proc,
          e.addr,
          static_cast<mem::Service>(e.svc),
          e.kind == TapKind::kWrite,
          e.stall,
          e.home,
          e.addr + (e.aux & 0xffffffffu),
          e.addr + (e.aux >> 32)};
}

/// Records the in-situ tap stream and hands it over in chunks.
class TapRecorder final : public mem::AccessObserver,
                          public analysis::SyncObserver {
 public:
  using Flush = std::function<void(const std::vector<TapEvent>&)>;

  TapRecorder(const Runtime& rt, bool serving, Flush flush)
      : rt_(rt), serving_(serving), flush_(std::move(flush)) {
    buf_.reserve(kChunk);
  }

  void on_access(const mem::AccessInfo& i) override {
    push({i.addr, (i.lo - i.addr) | ((i.hi - i.addr) << 32), i.stall,
          static_cast<std::uint8_t>(i.proc),
          i.is_write ? TapKind::kWrite : TapKind::kRead,
          static_cast<std::uint8_t>(i.service),
          static_cast<std::uint8_t>(i.home)});
  }
  void on_inval(std::uint64_t addr, topo::ProcId requester,
                int copies) override {
    push({addr, static_cast<std::uint64_t>(copies), 0,
          static_cast<std::uint8_t>(requester), TapKind::kInval, 0, 0});
  }

  void on_spawn(std::uint64_t parent, std::uint64_t child) override {
    if (!serving_) return;
    // load::Driver's root task re-spawns itself pinned as the admission
    // pump, which spawns request i as its i-th child. The differential
    // request check (per-request memory stall) confirms this numbering.
    if (root_ == 0 && parent == 0) {
      root_ = child;
    } else if (pump_ == 0 && parent == root_) {
      pump_ = child;
    } else if (pump_ != 0 && parent == pump_) {
      const std::uint32_t req = next_req_++;
      seq2req_[child] = req;
      push({child, req, 0, 0, TapKind::kSpawn, 0, 0});
    }
  }
  void on_task_run(topo::ProcId proc, std::uint64_t task, obs::HintClass hint,
                   std::uint64_t set_key) override {
    std::uint64_t req = kNoRequest;
    std::uint32_t finalized = 0;
    if (serving_) {
      const auto it = seq2req_.find(task);
      if (it != seq2req_.end()) req = it->second;
      finalized = static_cast<std::uint32_t>(rt_.request_trace()->completed());
    }
    push({set_key, req, finalized, static_cast<std::uint8_t>(proc),
          TapKind::kDispatch, static_cast<std::uint8_t>(hint), 0});
  }
  void on_release(const void*, std::uint64_t) override {}
  void on_acquire(const void*, std::uint64_t) override {}
  void on_cond_signal(const void*, std::uint64_t) override {}
  void on_cond_wake(const void*, std::uint64_t) override {}
  void on_group_done(const void*, std::uint64_t) override {}
  void on_group_wait(const void*, std::uint64_t) override {}
  void on_barrier_arrive(const void*, std::uint64_t) override {}
  void on_barrier_release(const void*, std::uint64_t) override {}

  /// Hand over the last partial chunk (call once the run has ended).
  void finish() {
    if (!buf_.empty()) flush_(buf_);
    buf_.clear();
  }
  /// Tap callbacks recorded: accesses, invalidations and dispatches.
  [[nodiscard]] std::uint64_t tap_events() const noexcept { return taps_; }

 private:
  void push(const TapEvent& e) {
    if (e.kind != TapKind::kSpawn) ++taps_;
    buf_.push_back(e);
    if (buf_.size() == kChunk) {
      flush_(buf_);
      buf_.clear();
    }
  }

  const Runtime& rt_;
  bool serving_;
  Flush flush_;
  std::vector<TapEvent> buf_;
  std::uint64_t taps_ = 0;
  std::uint64_t root_ = 0;
  std::uint64_t pump_ = 0;
  std::uint32_t next_req_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> seq2req_;
};

/// Replays the line references through a fresh MemorySystem. Pages are
/// bound, or migrated, to the home recorded on each event before the
/// reference that needs them; binding happens outside the timed loop.
class MemReplay {
 public:
  MemReplay(const topo::MachineConfig& m, const mem::ChannelConfig& ch)
      : m_(m), mem_(m, ch), clock_(m.n_procs, 0) {}

  void replay(const std::vector<TapEvent>& ev) {
    struct Migration {
      std::size_t at;
      std::uint64_t page;
      topo::ProcId home;
    };
    std::vector<Migration> migs;
    std::uint64_t last_page = ~0ull;
    std::uint8_t last_home = 0;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const TapEvent& e = ev[i];
      if (!is_access(e)) continue;
      const std::uint64_t page = e.addr / m_.page_bytes;
      if (page == last_page && e.home == last_home) continue;
      last_page = page;
      last_home = e.home;
      const auto it = homes_.find(page);
      if (it == homes_.end()) {
        homes_.emplace(page, e.home);
        mem_.bind_range(page * m_.page_bytes, m_.page_bytes, e.home);
      } else if (it->second != e.home) {
        it->second = e.home;
        migs.push_back({i, page, e.home});
      }
    }

    const std::uint64_t line = m_.line_bytes;
    std::size_t mi = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const TapEvent& e = ev[i];
      if (!is_access(e)) continue;
      while (mi < migs.size() && migs[mi].at == i) {
        mem_.migrate(e.proc, migs[mi].page * m_.page_bytes, m_.page_bytes,
                     migs[mi].home);
        ++mi;
      }
      // One MemorySystem::access call per run of contiguous line events of
      // one processor: a multi-line access reaches the tap line by line.
      const std::uint64_t start = e.addr + (e.aux & 0xffffffffu);
      std::uint64_t end = e.addr + (e.aux >> 32);
      std::uint64_t lines = 1;
      std::size_t j = i;
      while (end == ev[j].addr + line) {
        std::size_t k = j + 1;
        while (k < ev.size() && ev[k].kind == TapKind::kInval) ++k;
        if (k == ev.size() || ev[k].kind != e.kind || ev[k].proc != e.proc ||
            ev[k].addr != ev[j].addr + line || (ev[k].aux & 0xffffffffu) != 0 ||
            (mi < migs.size() && migs[mi].at == k)) {
          break;
        }
        j = k;
        end = ev[k].addr + (ev[k].aux >> 32);
        ++lines;
      }
      std::uint64_t& now = clock_[e.proc];
      now += mem_.access(e.proc, start, end - start, e.kind == TapKind::kWrite,
                         now);
      refs_ += lines;
      ++calls_;
      i = j;
    }
    seconds_ += seconds_between(t0, Clock::now());
  }

  [[nodiscard]] const mem::PerfMonitor& monitor() const {
    return mem_.monitor();
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::uint64_t refs() const noexcept { return refs_; }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

 private:
  topo::MachineConfig m_;
  mem::MemorySystem mem_;
  std::vector<std::uint64_t> clock_;  ///< Per-processor replay clock.
  std::unordered_map<std::uint64_t, std::uint8_t> homes_;
  double seconds_ = 0.0;
  std::uint64_t refs_ = 0;
  std::uint64_t calls_ = 0;
};

/// Feeds the tap stream to a fresh LocalityProfiler registered with the
/// in-situ run's objects.
class ProfReplay {
 public:
  explicit ProfReplay(const topo::MachineConfig& m) : prof_(m) {}

  void register_from(const obs::ProfileSnapshot& s) {
    for (const obs::ProfileSnapshot::ObjectRow& o : s.objects) {
      if (!o.anonymous) prof_.register_object(o.name, o.addr, o.bytes, o.home);
    }
    registered_ = true;
  }
  [[nodiscard]] bool registered() const noexcept { return registered_; }

  void replay(const std::vector<TapEvent>& ev) {
    const Clock::time_point t0 = Clock::now();
    for (const TapEvent& e : ev) {
      switch (e.kind) {
        case TapKind::kRead:
        case TapKind::kWrite:
          prof_.on_access(access_info(e));
          break;
        case TapKind::kInval:
          prof_.on_inval(e.addr, e.proc, static_cast<int>(e.aux));
          break;
        case TapKind::kDispatch:
          // The sync tap does not say whether the task was stolen; the
          // per-set steal counts are the only rows this leaves unreplayed.
          prof_.on_task_dispatch(e.proc, static_cast<obs::HintClass>(e.svc),
                                 e.addr, false);
          break;
        case TapKind::kSpawn:
          break;
      }
    }
    seconds_ += seconds_between(t0, Clock::now());
  }

  [[nodiscard]] const obs::LocalityProfiler& profiler() const { return prof_; }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  obs::LocalityProfiler prof_;
  bool registered_ = false;
  double seconds_ = 0.0;
};

/// Feeds the tap stream to a fresh RequestTraceRecorder. Admission and
/// completion stamps come from the in-situ recorder; each request's spans
/// are laid inside [admission, completion], so the stall attributed by the
/// replayed tap is compared exactly against the in-situ attribution.
class ReqReplay {
 public:
  ReqReplay(const SystemConfig& cfg, const obs::RequestTraceRecorder* insitu,
            const std::vector<std::uint64_t>* arrivals)
      : rec_(cfg.machine.n_procs, cfg.req_trace_ring_capacity,
             cfg.req_trace_exemplars),
        insitu_(insitu) {
    rec_.begin_run(arrivals != nullptr && insitu != nullptr
                       ? *arrivals
                       : std::vector<std::uint64_t>{},
                   0);
  }

  void replay(const std::vector<TapEvent>& ev) {
    const Clock::time_point t0 = Clock::now();
    for (const TapEvent& e : ev) {
      switch (e.kind) {
        case TapKind::kRead:
        case TapKind::kWrite:
          rec_.on_access(access_info(e));
          break;
        case TapKind::kInval:
          rec_.on_inval(e.addr, e.proc, static_cast<int>(e.aux));
          break;
        case TapKind::kSpawn: {
          const auto r = static_cast<std::uint32_t>(e.aux);
          rec_.on_admit(r, insitu_->stat(r).admission);
          break;
        }
        case TapKind::kDispatch: {
          close_span(e.stall);
          const auto r = static_cast<std::uint32_t>(e.aux);
          const std::uint64_t adm =
              r != kNoRequest ? insitu_->stat(r).admission : 0;
          rec_.on_dispatch(e.proc, r, adm, adm, 0, false, false, e.proc);
          open_ = {true, e.proc, r, e.stall};
          break;
        }
      }
    }
    seconds_ += seconds_between(t0, Clock::now());
  }

  /// Close the span of the run's last dispatch.
  void finish() {
    if (insitu_ != nullptr) {
      close_span(static_cast<std::uint32_t>(insitu_->completed()));
    }
  }

  [[nodiscard]] const obs::RequestTraceRecorder& recorder() const {
    return rec_;
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  /// The span opened by the previous dispatch ended before this point; it
  /// was a request's last span iff the in-situ recorder finalized a request
  /// in between (the simulator runs one span at a time).
  void close_span(std::uint32_t finalized_now) {
    if (!open_.valid) return;
    open_.valid = false;
    if (open_.req == kNoRequest) {
      rec_.on_span_end(open_.proc, 0);
      return;
    }
    const obs::ReqStat& s = insitu_->stat(open_.req);
    if (finalized_now > open_.finalized) {
      rec_.on_complete(open_.req, s.completion);
      rec_.on_span_end(open_.proc, s.completion);
    } else {
      rec_.on_span_end(open_.proc, s.admission);
    }
  }

  struct Open {
    bool valid = false;
    topo::ProcId proc = 0;
    std::uint32_t req = kNoRequest;
    std::uint32_t finalized = 0;
  };
  obs::RequestTraceRecorder rec_;
  const obs::RequestTraceRecorder* insitu_;
  Open open_;
  double seconds_ = 0.0;
};

bool same_counters(const mem::ProcCounters& a, const mem::ProcCounters& b) {
  bool same = a.reads == b.reads && a.writes == b.writes &&
              a.upgrades == b.upgrades && a.invals_sent == b.invals_sent &&
              a.invals_received == b.invals_received &&
              a.writebacks == b.writebacks;
  for (int s = 0; s < mem::kNumServices; ++s) {
    same = same && a.serviced[s] == b.serviced[s];
  }
  return same;
}

bool same_stats(const obs::AccessStats& a, const obs::AccessStats& b) {
  bool same = a.reads == b.reads && a.writes == b.writes &&
              a.invals == b.invals && a.stall_cycles == b.stall_cycles &&
              a.remote_stall_cycles == b.remote_stall_cycles;
  for (int s = 0; s < mem::kNumServices; ++s) {
    same = same && a.serviced[s] == b.serviced[s];
  }
  return same;
}

/// Per-object rows of two profiler snapshots; "" when identical.
std::string object_rows_diff(const obs::ProfileSnapshot& want,
                             const obs::ProfileSnapshot& got) {
  if (want.objects.size() != got.objects.size()) {
    return std::to_string(got.objects.size()) + " object rows, expected " +
           std::to_string(want.objects.size());
  }
  for (std::size_t i = 0; i < want.objects.size(); ++i) {
    const auto& w = want.objects[i];
    const auto& g = got.objects[i];
    if (w.name != g.name || w.addr != g.addr || !same_stats(w.s, g.s) ||
        w.miss_from_cluster != g.miss_from_cluster ||
        w.miss_home_cluster != g.miss_home_cluster) {
      return "object " + w.name + " differs";
    }
  }
  return "";
}

/// Everything one traced round measures.
struct Round {
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;  ///< In-situ run, replay chunks excluded.
  double memsim_ns_per_ref = 0.0;
  double prof_ns_per_event = 0.0;
  double req_ns_per_event = 0.0;
  double sensor_us = 0.0;
  double arrivals_ns = 0.0;
  double build_ms = 0.0;
  SchedHarness sched;
  std::uint64_t tap_events = 0;
  std::uint64_t refs = 0;
  std::uint64_t calls = 0;
  mem::ProcCounters mem;
  sched::SchedStats sched_stats;
  std::uint64_t epochs = 0;
  std::uint64_t decisions = 0;
  std::uint64_t tasks = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t requests = 0;
};

Round traced_round(const Args& a, Workload& w, Spans* spans, Digest& first,
                   RunReport& rep) {
  Round r;
  Checks c(spans);
  const SystemConfig plain = w.config();

  // Untraced reference run in this process: tracing overhead is the traced
  // run's wall time minus this one.
  {
    ScopedSpan s(spans, "untraced_run");
    std::unique_ptr<Runtime> rt;
    {
      ScopedSpan s2(spans, "setup");
      set_up(w, plain, rt);
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s2(spans, "run");
      w.run(*rt);
    }
    r.untraced_wall_s = seconds_between(t0, Clock::now());
    w.check(*rt, c);
    check_digest(a, digest_of(*rt, w), first, c);
    rep.attempted += 1 + w.units();
    rep.failed += w.failed_units();
  }

  ScopedSpan traced(spans, "traced_run");
  SystemConfig cfg = plain;
  cfg.profile = true;  // the in-situ profiler the replayed one is checked on
  std::unique_ptr<Runtime> rt;
  {
    ScopedSpan s(spans, "setup");
    set_up(w, cfg, rt);
  }
  const bool serving = w.arrivals() != nullptr;
  MemReplay mem_replay(cfg.machine, cfg.mem_channel);
  ProfReplay prof_replay(cfg.machine);
  ReqReplay req_replay(cfg, rt->request_trace(), w.arrivals());
  double replay_s = 0.0;
  TapRecorder tap(*rt, serving, [&](const std::vector<TapEvent>& ev) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan s(spans, "replay_batch");
    if (!prof_replay.registered()) {
      prof_replay.register_from(rt->profile_snapshot());
    }
    {
      ScopedSpan s2(spans, "replay.memsim");
      mem_replay.replay(ev);
    }
    {
      ScopedSpan s2(spans, "replay.profiler");
      prof_replay.replay(ev);
    }
    {
      ScopedSpan s2(spans, "replay.reqtrace");
      req_replay.replay(ev);
    }
    replay_s += seconds_between(t0, Clock::now());
  });
  rt->sim()->attach_race(&tap, &tap);
  {
    ScopedSpan s(spans, "run");
    const Clock::time_point t0 = Clock::now();
    w.run(*rt);
    r.traced_wall_s = seconds_between(t0, Clock::now()) - replay_s;
    tap.finish();
    req_replay.finish();
  }
  w.check(*rt, c);
  const Digest d = digest_of(*rt, w);
  c.expect("taps_leave_simulation_unchanged",
           [&] { return digest_diff(first, d); });
  rep.attempted += 1 + w.units();
  rep.failed += w.failed_units();

  // Differential replay checks.
  const mem::PerfMonitor& insitu = *rt->monitor();
  r.mem = mem_replay.monitor().total();
  if (insitu.total().pages_migrated == 0) {
    // With no mid-run migration every page keeps one home, so the replay
    // must reproduce each processor's counters exactly. (Adaptive runs
    // migrate pages mid-run; the replay applies those lazily, at the next
    // reference to the page, so only their totals are reported.)
    c.expect("memsim_replay_matches_in_situ", [&] {
      for (std::uint32_t p = 0; p < cfg.machine.n_procs; ++p) {
        if (!same_counters(insitu.proc(p), mem_replay.monitor().proc(p))) {
          return "processor " + std::to_string(p) + " counters differ";
        }
      }
      return std::string();
    });
  }
  c.expect("profiler_replay_matches_in_situ", [&] {
    return object_rows_diff(rt->profile_snapshot(),
                            prof_replay.profiler().snapshot());
  });
  if (serving) {
    c.expect("reqtrace_replay_matches_in_situ", [&] {
      const obs::RequestTraceRecorder& in = *rt->request_trace();
      const obs::RequestTraceRecorder& re = req_replay.recorder();
      const std::uint64_t n = w.arrivals()->size();
      std::uint64_t differ = 0;
      for (std::uint32_t q = 0; q < n; ++q) {
        if (re.stat(q).memory_stall != in.stat(q).memory_stall ||
            re.stat(q).dispatches != in.stat(q).dispatches ||
            !re.stat(q).finalized) {
          ++differ;
        }
      }
      return unless(differ == 0 && re.completed() == in.completed(),
                    std::to_string(differ) + " requests differ; completed " +
                        std::to_string(re.completed()) + " vs " +
                        std::to_string(in.completed()));
    });
  }

  r.tap_events = tap.tap_events();
  r.refs = mem_replay.refs();
  r.calls = mem_replay.calls();
  r.memsim_ns_per_ref = 1e9 * mem_replay.seconds() / static_cast<double>(r.refs);
  r.prof_ns_per_event =
      1e9 * prof_replay.seconds() / static_cast<double>(r.tap_events);
  r.req_ns_per_event =
      1e9 * req_replay.seconds() / static_cast<double>(r.tap_events);
  r.sched_stats = rt->sched_stats();
  r.tasks = rt->tasks_completed();
  r.sim_cycles = rt->sim_time();
  if (const adaptive::AdaptiveEngine* ae = rt->adaptive_engine()) {
    r.epochs = ae->epochs();
    r.decisions = ae->log().size();
  }

  // The sensor calls an adaptive epoch makes, timed on the finished run.
  {
    ScopedSpan s(spans, "adaptive.sensors");
    constexpr int kReps = 20;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      sink += rt->profile_snapshot().objects.size();
      sink += rt->obs_snapshot().values.size();
      if (const obs::RequestTraceRecorder* rec = rt->request_trace()) {
        const obs::BreakdownSample b = rec->all();
        sink += b.service.count();
      }
    }
    r.sensor_us = 1e6 * seconds_between(t0, Clock::now()) / kReps;
    c.expect("sensors_answered",
             [&] { return unless(sink > 0, "empty snapshots"); });
  }
  rt.reset();

  {
    ScopedSpan s(spans, "harness.sched");
    r.sched = run_sched_harness(cfg.machine, cfg.policy, spans);
    c.expect("harness_acquires_each_task_once", [&] {
      return unless(r.sched.wrong == 0,
                    std::to_string(r.sched.wrong) + " descriptors");
    });
    rep.attempted += r.sched.placed;
    rep.failed += r.sched.wrong;
  }
  {
    ScopedSpan s(spans, "load.generate_arrivals");
    const load::ArrivalConfig ac = serving_arrivals(a.seed);
    std::vector<double> t;
    for (int i = 0; i < kProbeReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<std::uint64_t> tr = load::generate_arrivals(ac);
      t.push_back(seconds_between(t0, Clock::now()));
      r.requests = tr.size();
    }
    c.expect("arrivals_generated", [&] {
      return unless(r.requests == ac.n_requests,
                    std::to_string(r.requests) + " arrivals");
    });
    r.arrivals_ns = 1e9 * median(t) / static_cast<double>(ac.n_requests);
  }
  {
    ScopedSpan s(spans, "core.runtime_build");
    std::vector<double> t;
    for (int i = 0; i < kProbeReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto built = std::make_unique<Runtime>(plain);
      t.push_back(seconds_between(t0, Clock::now()));
    }
    r.build_ms = 1e3 * median(t);
  }
  rep.attempted += c.attempted();
  rep.failed += c.failed();
  return r;
}

}  // namespace

RunReport run_traced(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  Spans spans;
  RunReport rep;
  Digest first;
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(traced_round(a, *w, &spans, first, rep));
  } while (seconds_between(start, Clock::now()) * (rounds.size() + 1) /
               rounds.size() <= a.seconds);

  if (!a.spans_dir.empty()) {
    const std::string path = a.spans_dir + "/" + a.workload + ".spans.json";
    std::ofstream out(path);
    out << spans.to_json(a.workload);
    if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  auto med = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    return median(v);
  };
  auto med_sched = [&](double SchedHarness::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.sched.*field);
    return median(v);
  };
  const Round& r0 = rounds.front();
  auto u = [](std::uint64_t x) { return static_cast<double>(x); };
  const sched::SchedStats& ss = r0.sched_stats;
  const double attempts = u(ss.steals + ss.failed_steal_scans);
  rep.metrics = {
      {"memsim.ns_per_ref", med(&Round::memsim_ns_per_ref), "ns"},
      {"memsim.refs", u(r0.refs), "count"},
      {"memsim.calls", u(r0.calls), "count"},
      {"memsim.l1_hits", u(r0.mem.serviced[0]), "count"},
      {"memsim.l2_hits", u(r0.mem.serviced[1]), "count"},
      {"memsim.local_misses", u(r0.mem.local_misses()), "count"},
      {"memsim.remote_misses", u(r0.mem.remote_misses()), "count"},
      {"memsim.invalidations", u(r0.mem.invals_sent), "count"},
      {"memsim.writebacks", u(r0.mem.writebacks), "count"},
      {"sched.ns_per_place", med_sched(&SchedHarness::ns_per_place), "ns"},
      {"sched.ns_per_pop", med_sched(&SchedHarness::ns_per_pop), "ns"},
      {"sched.ns_per_steal", med_sched(&SchedHarness::ns_per_steal), "ns"},
      {"sched.steal_cost_growth_4x",
       med_sched(&SchedHarness::steal_cost_growth_4x), "ratio"},
      {"sched.steals", u(ss.steals), "count"},
      {"sched.failed_steal_scans", u(ss.failed_steal_scans), "count"},
      {"sched.steal_success_ratio",
       attempts > 0 ? u(ss.steals) / attempts : 0.0, "ratio"},
      {"obs.tap_events", u(r0.tap_events), "count"},
      {"obs.profiler.ns_per_event", med(&Round::prof_ns_per_event), "ns"},
      {"obs.reqtrace.ns_per_event", med(&Round::req_ns_per_event), "ns"},
      {"adaptive.epochs", u(r0.epochs), "count"},
      {"adaptive.decisions", u(r0.decisions), "count"},
      {"adaptive.sensor_us_per_epoch", med(&Round::sensor_us), "us"},
      {"core.runtime_build_ms", med(&Round::build_ms), "ms"},
      {"engine.tasks", u(r0.tasks), "count"},
      {"engine.sim_cycles", u(r0.sim_cycles), "cycles"},
      {"load.requests", u(r0.requests), "count"},
      {"load.arrivals_ns_per_request", med(&Round::arrivals_ns), "ns"},
      {"trace.wall_s", med(&Round::traced_wall_s), "s"},
      {"trace.overhead_s",
       med(&Round::traced_wall_s) - med(&Round::untraced_wall_s), "s"},
      {"trace.peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return rep;
}

}  // namespace perfbench
