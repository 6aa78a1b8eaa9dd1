// RaceDetector — FastTrack-style happens-before race detection for COOL apps.
//
// The paper's affinity hints are "strictly an optimization" (§3): adding or
// moving a TASK/OBJECT hint must never change program results. That is only
// true when the app is data-race-free under *every* schedule the runtime may
// pick, so this detector checks exactly that property on the schedule the sim
// engine actually ran.
//
// Algorithm (FastTrack, Flanagan & Freund PLDI'09, adapted):
//   * Every task carries a sparse vector clock (task seq → clock) plus its
//     own scalar clock, incremented at each outgoing-edge operation.
//   * Every sync object (mutex/cond/group/barrier) carries a VC. A source
//     event (release/signal/done/arrive) joins the task's clock into it; a
//     sink event (acquire/wake/wait/release) joins it back into the waking
//     task. Spawn copies the parent's clock into the child.
//   * Shadow memory holds, per cache line, a sorted list of disjoint byte
//     segments, each with the last-write epoch (task, clock, proc) and the
//     set of concurrent read epochs since that write. Segments split on
//     partially-overlapping accesses, so checking is byte-exact and false
//     sharing within a line is never misreported as a race.
//   * An access races with a recorded epoch e unless e.task == current task
//     or current.vc[e.task] >= e.clk. Read epochs ordered before the current
//     access are compacted away (sound: happens-before is transitive through
//     the current task's clock).
//
// The detector consumes two passive taps: the mem::AccessObserver line stream
// (with byte sub-ranges) and the analysis::SyncObserver edge stream. Both are
// emitted only by the sim engine, whose min-clock frontier makes the
// interleaving — and therefore every report — deterministic and exact: the
// HB relation is computed over the real executed order, with no sampling and
// no timing perturbation (the taps charge zero simulated cycles).
//
// Known limitation: sync objects are keyed by address, so a mutex destroyed
// and re-created at the same address carries its predecessor's clock forward.
// That can only add spurious HB edges (hiding, never fabricating, a race);
// for task groups the stale clock is a subset of the re-creating task's own,
// so reuse is fully benign.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analysis/sync_observer.hpp"
#include "memsim/access_observer.hpp"
#include "obs/object_registry.hpp"
#include "obs/profiler.hpp"
#include "topology/machine.hpp"

namespace cool::analysis {

/// One deduplicated race: a pair of conflicting accesses with no
/// happens-before edge between them, attributed to the app object and the
/// racing tasks' affinity hints.
struct RaceReport {
  std::uint64_t addr = 0;      ///< First conflicting simulated byte.
  std::uint32_t bytes = 0;     ///< Length of the conflicting overlap.
  bool prev_write = false;     ///< Earlier access was a write.
  bool cur_write = false;      ///< Later access was a write.
  std::uint64_t prev_task = 0;
  std::uint64_t cur_task = 0;
  topo::ProcId prev_proc = 0;
  topo::ProcId cur_proc = 0;
  std::string object;          ///< Registry label of `addr`.
  std::string prev_desc;       ///< "task#N (hint @ set) on proc P".
  std::string cur_desc;
};

class RaceDetector final : public mem::AccessObserver, public SyncObserver {
 public:
  /// Full per-race details are kept for the first kMaxReports distinct
  /// races; total() keeps counting beyond that.
  static constexpr std::size_t kMaxReports = 32;

  explicit RaceDetector(const topo::MachineConfig& machine);

  /// Object names for attribution; fed by Runtime::profile_register.
  [[nodiscard]] obs::ObjectRegistry& registry() noexcept { return reg_; }
  [[nodiscard]] const obs::ObjectRegistry& registry() const noexcept {
    return reg_;
  }

  /// Distinct races detected (deduplicated by task pair, object, and
  /// read/write kind).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::vector<RaceReport>& races() const noexcept {
    return reports_;
  }

  /// Human-readable report ("== race check ==" header, one line per race).
  [[nodiscard]] std::string report() const;

  // --- mem::AccessObserver ---------------------------------------------------
  void on_access(const mem::AccessInfo& info) override;
  /// Invalidations are coherence traffic, not program accesses: ignored.
  void on_inval(std::uint64_t, topo::ProcId, int) override {}

  // --- SyncObserver ----------------------------------------------------------
  void on_spawn(std::uint64_t parent, std::uint64_t child) override;
  void on_task_run(topo::ProcId proc, std::uint64_t task, obs::HintClass hint,
                   std::uint64_t set_key) override;
  void on_release(const void* mu, std::uint64_t task) override;
  void on_acquire(const void* mu, std::uint64_t task) override;
  void on_cond_signal(const void* cv, std::uint64_t task) override;
  void on_cond_wake(const void* cv, std::uint64_t task) override;
  void on_group_done(const void* grp, std::uint64_t task) override;
  void on_group_wait(const void* grp, std::uint64_t task) override;
  void on_barrier_arrive(const void* bar, std::uint64_t task) override;
  void on_barrier_release(const void* bar, std::uint64_t task) override;

 private:
  /// Sparse vector clock: task seq → highest clock value seen.
  using VC = std::unordered_map<std::uint64_t, std::uint64_t>;

  struct TaskInfo {
    VC vc;
    std::uint64_t clk = 1;  ///< Own scalar clock; bumps on outgoing edges.
    obs::HintClass hint = obs::HintClass::kNone;
    std::uint64_t set_key = kNoSet;
  };

  /// (task, clock, proc) at the time of an access.
  struct Epoch {
    std::uint64_t task = 0;  ///< 0 = none.
    std::uint64_t clk = 0;
    topo::ProcId proc = 0;
  };

  /// A byte range [lo, hi) of one line with uniform access history.
  struct Seg {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;       ///< Offsets within the line; hi exclusive.
    Epoch write;                ///< Last write (task 0 = never written).
    std::vector<Epoch> reads;   ///< Concurrent reads since that write.
  };

  [[nodiscard]] static bool ordered(const Epoch& e, const TaskInfo& t,
                                    std::uint64_t tid);
  void release_edge(const void* obj, std::uint64_t task);
  void acquire_edge(const void* obj, std::uint64_t task);
  void write_range(std::vector<Seg>& segs, std::uint64_t line,
                   std::uint32_t a, std::uint32_t b, std::uint64_t tid,
                   TaskInfo& t, topo::ProcId proc);
  void read_range(std::vector<Seg>& segs, std::uint64_t line, std::uint32_t a,
                  std::uint32_t b, std::uint64_t tid, TaskInfo& t,
                  topo::ProcId proc);
  void record_race(std::uint64_t line, std::uint32_t olo, std::uint32_t ohi,
                   const Epoch& prev, bool prev_write, std::uint64_t tid,
                   topo::ProcId proc, bool cur_write);
  [[nodiscard]] std::string task_desc(std::uint64_t tid,
                                      topo::ProcId proc) const;

  topo::MachineConfig machine_;
  obs::ObjectRegistry reg_;
  std::unordered_map<std::uint64_t, TaskInfo> tasks_;   ///< By task seq.
  std::unordered_map<const void*, VC> syncs_;           ///< By object address.
  std::unordered_map<std::uint64_t, std::vector<Seg>> shadow_;  ///< By line.
  std::vector<std::uint64_t> cur_task_;  ///< Running task seq per processor.
  /// Dedup key: (prev task, cur task, object-or-line, rw kind).
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int>> seen_;
  std::vector<RaceReport> reports_;
  std::uint64_t total_ = 0;
};

}  // namespace cool::analysis
