#include "analysis/race_detector.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace cool::analysis {

RaceDetector::RaceDetector(const topo::MachineConfig& machine)
    : machine_(machine), cur_task_(machine.n_procs, 0) {}

bool RaceDetector::ordered(const Epoch& e, const TaskInfo& t,
                           std::uint64_t tid) {
  if (e.task == tid) return true;  // Program order.
  auto it = t.vc.find(e.task);
  return it != t.vc.end() && it->second >= e.clk;
}

void RaceDetector::release_edge(const void* obj, std::uint64_t task) {
  TaskInfo& t = tasks_[task];
  VC& s = syncs_[obj];
  for (const auto& [k, v] : t.vc) {
    auto& sv = s[k];
    if (v > sv) sv = v;
  }
  auto& self = s[task];
  if (t.clk > self) self = t.clk;
  // Bump the releaser's clock so accesses after this edge are not mistaken
  // for accesses before it.
  ++t.clk;
}

void RaceDetector::acquire_edge(const void* obj, std::uint64_t task) {
  auto it = syncs_.find(obj);
  if (it == syncs_.end()) return;  // Never released: nothing to join.
  TaskInfo& t = tasks_[task];
  for (const auto& [k, v] : it->second) {
    if (k == task) continue;
    auto& tv = t.vc[k];
    if (v > tv) tv = v;
  }
}

// --- SyncObserver ------------------------------------------------------------

void RaceDetector::on_spawn(std::uint64_t parent, std::uint64_t child) {
  if (parent == 0) {
    (void)tasks_[child];  // Root task: empty clock.
    return;
  }
  VC snap;
  {
    TaskInfo& p = tasks_[parent];
    snap = p.vc;
    snap[parent] = p.clk;
    ++p.clk;
  }
  // Separate statement: tasks_[child] may rehash and would invalidate `p`.
  tasks_[child].vc = std::move(snap);
}

void RaceDetector::on_task_run(topo::ProcId proc, std::uint64_t task,
                               obs::HintClass hint, std::uint64_t set_key) {
  cur_task_[proc] = task;
  TaskInfo& t = tasks_[task];
  t.hint = hint;
  t.set_key = set_key;
}

void RaceDetector::on_release(const void* mu, std::uint64_t task) {
  release_edge(mu, task);
}
void RaceDetector::on_acquire(const void* mu, std::uint64_t task) {
  acquire_edge(mu, task);
}
void RaceDetector::on_cond_signal(const void* cv, std::uint64_t task) {
  release_edge(cv, task);
}
void RaceDetector::on_cond_wake(const void* cv, std::uint64_t task) {
  acquire_edge(cv, task);
}
void RaceDetector::on_group_done(const void* grp, std::uint64_t task) {
  release_edge(grp, task);
}
void RaceDetector::on_group_wait(const void* grp, std::uint64_t task) {
  acquire_edge(grp, task);
}
void RaceDetector::on_barrier_arrive(const void* bar, std::uint64_t task) {
  release_edge(bar, task);
}
void RaceDetector::on_barrier_release(const void* bar, std::uint64_t task) {
  acquire_edge(bar, task);
}

// --- Shadow memory -----------------------------------------------------------

void RaceDetector::on_access(const mem::AccessInfo& info) {
  if (info.proc >= cur_task_.size()) return;
  const std::uint64_t tid = cur_task_[info.proc];
  if (tid == 0) return;  // Access outside any tracked task.
  TaskInfo& t = tasks_[tid];
  std::uint64_t lo = info.lo;
  std::uint64_t hi = info.hi;
  if (hi <= lo) {
    // Line-granular caller (no byte range): take the whole line. That is
    // conservative but only for callers that never supply ranges.
    lo = info.addr;
    hi = info.addr + machine_.line_bytes;
  }
  auto& segs = shadow_[info.addr];
  const auto a = static_cast<std::uint32_t>(lo - info.addr);
  const auto b = static_cast<std::uint32_t>(hi - info.addr);
  if (info.is_write) {
    write_range(segs, info.addr, a, b, tid, t, info.proc);
  } else {
    read_range(segs, info.addr, a, b, tid, t, info.proc);
  }
}

void RaceDetector::write_range(std::vector<Seg>& segs, std::uint64_t line,
                               std::uint32_t a, std::uint32_t b,
                               std::uint64_t tid, TaskInfo& t,
                               topo::ProcId proc) {
  Seg mine;
  mine.lo = a;
  mine.hi = b;
  mine.write = Epoch{tid, t.clk, proc};
  std::vector<Seg> out;
  out.reserve(segs.size() + 2);
  bool inserted = false;
  for (Seg& s : segs) {
    if (s.hi <= a) {  // Entirely before the write.
      out.push_back(std::move(s));
      continue;
    }
    if (s.lo >= b) {  // Entirely after: the write slots in first.
      if (!inserted) {
        out.push_back(mine);
        inserted = true;
      }
      out.push_back(std::move(s));
      continue;
    }
    const std::uint32_t olo = std::max(s.lo, a);
    const std::uint32_t ohi = std::min(s.hi, b);
    if (s.write.task != 0 && !ordered(s.write, t, tid)) {
      record_race(line, olo, ohi, s.write, true, tid, proc, true);
    }
    for (const Epoch& r : s.reads) {
      if (!ordered(r, t, tid)) {
        record_race(line, olo, ohi, r, false, tid, proc, true);
      }
    }
    // The write supersedes the overlapped part; non-overlapped remnants keep
    // their history.
    if (s.lo < a) {
      Seg left = s;
      left.hi = a;
      out.push_back(std::move(left));
    }
    if (!inserted) {
      out.push_back(mine);
      inserted = true;
    }
    if (s.hi > b) {
      Seg right = std::move(s);
      right.lo = b;
      out.push_back(std::move(right));
    }
  }
  if (!inserted) out.push_back(mine);
  segs = std::move(out);
}

void RaceDetector::read_range(std::vector<Seg>& segs, std::uint64_t line,
                              std::uint32_t a, std::uint32_t b,
                              std::uint64_t tid, TaskInfo& t,
                              topo::ProcId proc) {
  const Epoch me{tid, t.clk, proc};
  std::vector<Seg> out;
  out.reserve(segs.size() + 3);
  std::uint32_t cursor = a;
  // Bytes of [a, b) no existing segment covers get a fresh read-only segment.
  const auto emit_gap = [&](std::uint32_t up_to) {
    if (cursor >= up_to) return;
    Seg g;
    g.lo = cursor;
    g.hi = up_to;
    g.reads.push_back(me);
    out.push_back(std::move(g));
    cursor = up_to;
  };
  for (Seg& s : segs) {
    if (s.hi <= a) {
      out.push_back(std::move(s));
      continue;
    }
    if (s.lo >= b) {
      emit_gap(b);
      out.push_back(std::move(s));
      continue;
    }
    const std::uint32_t olo = std::max(s.lo, a);
    const std::uint32_t ohi = std::min(s.hi, b);
    emit_gap(olo);
    if (s.write.task != 0 && !ordered(s.write, t, tid)) {
      record_race(line, olo, ohi, s.write, true, tid, proc, false);
    }
    if (s.lo < olo) {
      Seg left = s;
      left.hi = olo;
      out.push_back(std::move(left));
    }
    Seg mid = s;
    mid.lo = olo;
    mid.hi = ohi;
    // Compact: reads ordered before this one are subsumed by it — any later
    // access ordered after this read is transitively ordered after them.
    std::erase_if(mid.reads,
                  [&](const Epoch& r) { return ordered(r, t, tid); });
    mid.reads.push_back(me);
    out.push_back(std::move(mid));
    if (s.hi > ohi) {
      Seg right = std::move(s);
      right.lo = ohi;
      out.push_back(std::move(right));
    }
    cursor = ohi;
  }
  emit_gap(b);
  segs = std::move(out);
}

// --- Reporting ---------------------------------------------------------------

void RaceDetector::record_race(std::uint64_t line, std::uint32_t olo,
                               std::uint32_t ohi, const Epoch& prev,
                               bool prev_write, std::uint64_t tid,
                               topo::ProcId proc, bool cur_write) {
  const std::uint64_t byte = line + olo;
  const std::size_t idx = reg_.find(byte);
  // Dedup per app object when the byte is registered, else per line.
  const std::uint64_t unit =
      idx != obs::ObjectRegistry::npos ? (1ull << 63) | idx : line;
  const int kind = (prev_write ? 2 : 0) | (cur_write ? 1 : 0);
  if (!seen_.insert({prev.task, tid, unit, kind}).second) return;
  ++total_;
  if (reports_.size() >= kMaxReports) return;
  RaceReport r;
  r.addr = byte;
  r.bytes = ohi - olo;
  r.prev_write = prev_write;
  r.cur_write = cur_write;
  r.prev_task = prev.task;
  r.cur_task = tid;
  r.prev_proc = prev.proc;
  r.cur_proc = proc;
  r.object = reg_.label(byte);
  r.prev_desc = task_desc(prev.task, prev.proc);
  r.cur_desc = task_desc(tid, proc);
  reports_.push_back(std::move(r));
}

std::string RaceDetector::task_desc(std::uint64_t tid,
                                    topo::ProcId proc) const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "task#%" PRIu64, tid);
  std::string s = buf;
  auto it = tasks_.find(tid);
  const obs::HintClass hint =
      it != tasks_.end() ? it->second.hint : obs::HintClass::kNone;
  const std::uint64_t key = it != tasks_.end() ? it->second.set_key : kNoSet;
  s += " (";
  s += obs::hint_class_name(hint);
  if (key != kNoSet) {
    s += " @ ";
    s += reg_.label(key);
  }
  std::snprintf(buf, sizeof buf, ") on proc %u", static_cast<unsigned>(proc));
  s += buf;
  return s;
}

std::string RaceDetector::report() const {
  std::string out = "== race check ==\n";
  char buf[96];
  if (total_ == 0) {
    out += "no races detected\n";
    return out;
  }
  std::snprintf(buf, sizeof buf, "%" PRIu64 " distinct race(s) detected\n",
                total_);
  out += buf;
  std::size_t i = 0;
  for (const RaceReport& r : reports_) {
    std::snprintf(buf, sizeof buf, "  [%zu] %s/%s on ", ++i,
                  r.prev_write ? "write" : "read",
                  r.cur_write ? "write" : "read");
    out += buf;
    out += r.object;
    std::snprintf(buf, sizeof buf, " (%u byte%s at 0x%" PRIx64 ")\n", r.bytes,
                  r.bytes == 1 ? "" : "s", r.addr);
    out += buf;
    out += "      " + r.prev_desc + "  vs  " + r.cur_desc + "\n";
  }
  if (total_ > reports_.size()) {
    std::snprintf(buf, sizeof buf, "  (+%" PRIu64 " more; first %zu shown)\n",
                  total_ - reports_.size(), reports_.size());
    out += buf;
  }
  return out;
}

}  // namespace cool::analysis
