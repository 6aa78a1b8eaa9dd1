// Differential test: MemorySystem (direct-mapped single probe, read-hit
// filter, dense page map, set-bit sharer walk) against the pre-flattening
// model in memsim_oracle.hpp. Seeded random streams of multi-line and
// page-straddling reads and writes, migrations, prefetches and cache flushes
// run in lockstep through three systems:
//   * `fast`   — MemorySystem with no observer, so reads take the filter;
//   * `tapped` — MemorySystem with a recording observer, so every line goes
//                through access_line();
//   * `ref`    — the oracle, with a recording observer.
// Every call's return value must agree, and so must every processor's
// ProcCounters, the directory state, the page home of every touched page and
// the observer event streams. Coverage floors make sure each stream reaches
// every service class, upgrades, writebacks and the filter's hand-off, so no
// stream can pass vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "memsim/memsystem.hpp"
#include "memsim_oracle.hpp"

namespace cool::mem {
namespace {

// --- Observer events -----------------------------------------------------

/// One on_access or on_inval call, flattened so streams compare with ==.
struct Event {
  bool inval = false;
  topo::ProcId proc = 0;
  std::uint64_t addr = 0;
  Service service = Service::kL1Hit;
  bool is_write = false;
  std::uint32_t stall = 0;
  topo::ProcId home = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  int killed = 0;

  bool operator==(const Event&) const = default;
};

class Recorder final : public AccessObserver {
 public:
  void on_access(const AccessInfo& i) override {
    events.push_back(Event{false, i.proc, i.addr, i.service, i.is_write,
                           i.stall, i.home, i.lo, i.hi, 0});
  }
  void on_inval(std::uint64_t addr, topo::ProcId requester,
                int copies_killed) override {
    Event e;
    e.inval = true;
    e.proc = requester;
    e.addr = addr;
    e.killed = copies_killed;
    events.push_back(e);
  }

  std::vector<Event> events;
};

// --- Operation streams ---------------------------------------------------

struct Op {
  enum class Kind : std::uint8_t { kAccess, kPrefetch, kMigrate, kFlush };
  Kind kind = Kind::kAccess;
  topo::ProcId proc = 0;
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
  bool is_write = false;
  topo::ProcId target = 0;
  std::uint64_t now = 0;
};

constexpr std::uint64_t kAliasBase = 0x100000;
constexpr std::uint64_t kSharedBase = 0x80000;
constexpr std::uint64_t kWideBase = 0x400000;
constexpr std::uint64_t kWideBytes = 2u << 20;

/// A stream mixing three address patterns:
///  * an alias region strided by one L1 way, so lines conflict in L1 (L2
///    hits) and, past the L2 way size, in L2 (evictions and writebacks);
///  * a 1 KiB region every processor shares (upgrades, dirty forwarding);
///  * a wide region touched at random (local and remote memory misses).
/// Accesses start at any byte and span up to 300 bytes, so many cross lines
/// and some cross pages.
std::vector<Op> make_stream(const topo::MachineConfig& m, std::uint64_t seed,
                            int n_ops) {
  util::Rng rng(seed);
  const std::uint64_t alias_stride = m.l1_bytes / m.l1_assoc;
  const std::uint64_t n_alias = 2 * m.l2_bytes / alias_stride;
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(n_ops));
  std::uint64_t now = 0;
  // Most operations come from a current processor that changes now and then,
  // as a task's references do, so each cache sees reuse.
  auto current = static_cast<topo::ProcId>(rng.next_below(m.n_procs));
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    if (rng.next_below(64) == 0) {
      current = static_cast<topo::ProcId>(rng.next_below(m.n_procs));
    }
    op.proc = rng.next_below(4) == 0
                  ? static_cast<topo::ProcId>(rng.next_below(m.n_procs))
                  : current;
    op.now = now;
    now += rng.next_below(60);
    const std::uint64_t pattern = rng.next_below(10);
    if (pattern < 4) {
      op.addr = kAliasBase + alias_stride * rng.next_below(n_alias) +
                rng.next_below(512);
    } else if (pattern < 7) {
      op.addr = kSharedBase + rng.next_below(1024);
    } else {
      op.addr = kWideBase + rng.next_below(kWideBytes);
    }
    op.bytes = 1 + rng.next_below(rng.next_below(4) == 0 ? 300 : 16);
    const std::uint64_t kind = rng.next_below(1000);
    if (kind < 3) {
      op.kind = Op::Kind::kFlush;
    } else if (kind < 15) {
      op.kind = Op::Kind::kMigrate;
      op.bytes = 1 + rng.next_below(6000);
      op.target = static_cast<topo::ProcId>(rng.next_below(m.n_procs));
    } else if (kind < 60) {
      op.kind = Op::Kind::kPrefetch;
    } else {
      op.is_write = rng.next_below(10) < 3;
    }
    ops.push_back(op);
  }
  return ops;
}

template <typename System>
std::uint64_t apply(System& ms, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAccess:
      return ms.access(op.proc, op.addr, op.bytes, op.is_write, op.now);
    case Op::Kind::kPrefetch:
      return ms.prefetch(op.proc, op.addr, op.bytes, op.now);
    case Op::Kind::kMigrate:
      return ms.migrate(op.proc, op.addr, op.bytes, op.target);
    case Op::Kind::kFlush:
      ms.flush_all_caches();
      return 0;
  }
  return 0;
}

/// Half the pages of the shared and wide regions pre-bound round-robin, as
/// COOL's placed `new` would; the rest are bound on first touch.
template <typename System>
void prebind(System& ms, const topo::MachineConfig& m) {
  for (std::uint64_t a = kSharedBase; a < kWideBase + kWideBytes;
       a += 2 * m.page_bytes) {
    ms.bind_range(a, m.page_bytes,
                  static_cast<topo::ProcId>((a / m.page_bytes) % m.n_procs));
  }
}

// --- State comparison ----------------------------------------------------

using CounterRow = std::vector<std::uint64_t>;

CounterRow row(const ProcCounters& c) {
  CounterRow r{c.reads,      c.writes,          c.upgrades,
               c.invals_sent, c.invals_received, c.writebacks,
               c.latency_cycles, c.contention_cycles, c.pages_migrated,
               c.prefetches};
  r.insert(r.end(), std::begin(c.serviced), std::end(c.serviced));
  return r;
}

::testing::AssertionResult same_monitor(const PerfMonitor& a,
                                        const PerfMonitor& b) {
  for (topo::ProcId p = 0; p < a.n_procs(); ++p) {
    if (row(a.proc(p)) != row(b.proc(p))) {
      return ::testing::AssertionFailure()
             << "ProcCounters of processor " << p << " differ";
    }
  }
  return ::testing::AssertionSuccess();
}

using DirRow = std::tuple<LineAddr, std::uint64_t, topo::ProcId>;

template <typename Map>
std::vector<DirRow> dir_rows(const Map& entries) {
  std::vector<DirRow> rows;
  rows.reserve(entries.size());
  for (const auto& [line, st] : entries) {
    rows.emplace_back(line, st.sharers, st.dirty_owner);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Page numbers an operation's range overlaps.
void note_pages(const topo::MachineConfig& m, const Op& op,
                std::set<std::uint64_t>& pages) {
  if (op.kind == Op::Kind::kFlush) return;
  for (std::uint64_t p = op.addr / m.page_bytes;
       p <= (op.addr + op.bytes - 1) / m.page_bytes; ++p) {
    pages.insert(p);
  }
}

// --- The driver ----------------------------------------------------------

/// How much of the model a stream reached.
struct Coverage {
  std::uint64_t serviced[kNumServices] = {};
  std::uint64_t upgrades = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invals = 0;
  std::uint64_t pages_migrated = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t first_touches = 0;
  std::uint64_t flushes = 0;
  std::uint64_t page_straddles = 0;
  std::uint64_t read_l2_hits = 0;  ///< Filter's L2 branch.
  std::uint64_t handoffs = 0;      ///< Reads where a hit line precedes a miss.
};

struct Case {
  const char* name;
  topo::MachineConfig machine;
  ChannelConfig::Kind chan;
  std::uint64_t seed;
  int ops;
};

ChannelConfig channel(ChannelConfig::Kind k) {
  ChannelConfig c;
  c.kind = k;
  return c;
}

/// Runs the stream through fast, tapped and ref in lockstep, checking
/// return values after every operation and the full state at checkpoints.
/// `check_oracle` compares fast against ref; `check_taps` compares fast
/// against tapped and tapped's events against ref's.
void run_case(const Case& c, bool check_oracle, bool check_taps,
              Coverage& cov) {
  const topo::MachineConfig& m = c.machine;
  MemorySystem fast(m, channel(c.chan));
  MemorySystem tapped(m, channel(c.chan));
  oracle::MemorySystem ref(m, channel(c.chan));
  Recorder tapped_events;
  Recorder ref_events;
  tapped.add_observer(&tapped_events);
  ref.add_observer(&ref_events);
  prebind(fast, m);
  prebind(tapped, m);
  prebind(ref, m);

  std::set<std::uint64_t> touched;
  const std::vector<Op> ops = make_stream(m, c.seed, c.ops);
  const auto checkpoint = [&](std::size_t i) {
    if (check_oracle) {
      EXPECT_TRUE(same_monitor(fast.monitor(), ref.monitor())) << "op " << i;
      EXPECT_EQ(dir_rows(fast.directory().entries()),
                dir_rows(ref.directory().entries()))
          << "directory after op " << i;
      for (const std::uint64_t p : touched) {
        const std::uint64_t a = p * m.page_bytes;
        ASSERT_EQ(fast.pages().is_bound(a), ref.pages().is_bound(a))
            << "page " << p;
        if (ref.pages().is_bound(a)) {
          EXPECT_EQ(fast.pages().home_of_bound(a), ref.pages().home_of_bound(a))
              << "home of page " << p << " after op " << i;
        }
      }
      EXPECT_EQ(fast.pages().n_bound_pages(), ref.pages().n_bound_pages());
      EXPECT_EQ(fast.pages().first_touch_count(),
                ref.pages().first_touch_count());
      EXPECT_EQ(fast.pages().pages_per_proc(), ref.pages().pages_per_proc());
    }
    if (check_taps) {
      EXPECT_TRUE(same_monitor(fast.monitor(), tapped.monitor())) << "op " << i;
      ASSERT_EQ(tapped_events.events.size(), ref_events.events.size())
          << "op " << i;
      for (std::size_t e = 0; e < ref_events.events.size(); ++e) {
        ASSERT_TRUE(tapped_events.events[e] == ref_events.events[e])
            << "event " << e << " of the window ending at op " << i;
      }
    }
    tapped_events.events.clear();
    ref_events.events.clear();
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::size_t ev0 = ref_events.events.size();
    const std::uint64_t want = apply(ref, op);
    const std::uint64_t got_fast = apply(fast, op);
    const std::uint64_t got_tapped = apply(tapped, op);
    if (check_oracle) {
      ASSERT_EQ(got_fast, want) << "op " << i;
    }
    if (check_taps) {
      ASSERT_EQ(got_fast, got_tapped) << "op " << i;
    }
    note_pages(m, op, touched);

    if (op.kind == Op::Kind::kFlush) ++cov.flushes;
    if (op.kind == Op::Kind::kAccess) {
      if (op.addr / m.page_bytes != (op.addr + op.bytes - 1) / m.page_bytes) {
        ++cov.page_straddles;
      }
      if (!op.is_write) {
        bool hit_seen = false;
        for (std::size_t e = ev0; e < ref_events.events.size(); ++e) {
          const Service s = ref_events.events[e].service;
          const bool hit = s == Service::kL1Hit || s == Service::kL2Hit;
          if (s == Service::kL2Hit) ++cov.read_l2_hits;
          if (!hit && hit_seen) {
            ++cov.handoffs;
            break;
          }
          hit_seen = hit_seen || hit;
        }
      }
    }
    if (i % 512 == 511) checkpoint(i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  checkpoint(ops.size());

  const ProcCounters total = ref.monitor().total();
  std::copy(std::begin(total.serviced), std::end(total.serviced),
            std::begin(cov.serviced));
  cov.upgrades = total.upgrades;
  cov.writebacks = total.writebacks;
  cov.invals = total.invals_received;
  cov.pages_migrated = total.pages_migrated;
  cov.prefetches = total.prefetches;
  cov.first_touches = ref.pages().first_touch_count();
}

void expect_coverage(const Coverage& cov) {
  static const char* const kNames[kNumServices] = {
      "L1 hit", "L2 hit", "local memory", "remote memory", "local cache",
      "remote cache"};
  for (int s = 0; s < kNumServices; ++s) {
    EXPECT_GE(cov.serviced[s], 20u) << kNames[s];
  }
  EXPECT_GE(cov.upgrades, 20u);
  EXPECT_GE(cov.writebacks, 20u);
  EXPECT_GE(cov.invals, 20u);
  EXPECT_GE(cov.pages_migrated, 5u);
  EXPECT_GE(cov.prefetches, 20u);
  EXPECT_GE(cov.first_touches, 20u);
  EXPECT_GE(cov.flushes, 2u);
  EXPECT_GE(cov.page_straddles, 5u);
  EXPECT_GE(cov.read_l2_hits, 100u);
  EXPECT_GE(cov.handoffs, 20u);
}

topo::MachineConfig set_associative() {
  topo::MachineConfig m = topo::MachineConfig::dash_small(16);
  m.l1_assoc = 2;
  m.l2_assoc = 4;
  return m;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const struct {
    const char* name;
    topo::MachineConfig m;
  } machines[] = {{"Dash32", topo::MachineConfig::dash(32)},
                  {"DashSmall16", topo::MachineConfig::dash_small(16)},
                  {"SetAssoc16", set_associative()}};
  for (const auto& mc : machines) {
    for (const auto k : {ChannelConfig::Kind::kFlat, ChannelConfig::Kind::kDdr}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        out.push_back(Case{mc.name, mc.m, k, seed, 12000});
      }
    }
  }
  return out;
}

std::string label(const Case& c) {
  return std::string(c.name) +
         (c.chan == ChannelConfig::Kind::kFlat ? "Flat" : "Ddr") + "Seed" +
         std::to_string(c.seed);
}

// Without it gtest prints a Case as raw bytes, pointer included, and the
// test's listed name would change from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << label(c); }

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return label(info.param);
}

class MemsimOracle : public ::testing::TestWithParam<Case> {};

TEST_P(MemsimOracle, MatchesReferenceModel) {
  Coverage cov;
  run_case(GetParam(), /*check_oracle=*/true, /*check_taps=*/false, cov);
  if (!HasFatalFailure()) expect_coverage(cov);
}

// The filter runs only without observers; attaching one must change nothing
// the program or the PerfMonitor can see, and the tap stream must be the
// reference model's event for event.
TEST_P(MemsimOracle, ObserverBypassIsInvisible) {
  Coverage cov;
  run_case(GetParam(), /*check_oracle=*/false, /*check_taps=*/true, cov);
  if (!HasFatalFailure()) expect_coverage(cov);
}

INSTANTIATE_TEST_SUITE_P(Streams, MemsimOracle, ::testing::ValuesIn(cases()),
                         case_name);

}  // namespace
}  // namespace cool::mem
