#include "memsim/memsystem.hpp"

#include <algorithm>
#include <bit>

namespace cool::mem {

MemorySystem::MemorySystem(const topo::MachineConfig& machine,
                           const ChannelConfig& chan)
    : machine_(machine), line_shift_(machine.line_shift()), pages_(machine_),
      mon_(machine.n_procs), backend_(make_channel_backend(machine, chan)) {
  machine_.validate();
  l1_.reserve(machine_.n_procs);
  l2_.reserve(machine_.n_procs);
  cluster_.reserve(machine_.n_procs);
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    l1_.emplace_back(machine_.l1_bytes, machine_.l1_assoc, machine_.line_bytes);
    l2_.emplace_back(machine_.l2_bytes, machine_.l2_assoc, machine_.line_bytes);
    cluster_.push_back(machine_.cluster_of(p));
  }
}

MemorySystem::InvalResult MemorySystem::invalidate_sharers(
    LineState& st, LineAddr line, topo::ProcId requester, topo::ProcId keeper,
    bool count_as_sharing) {
  InvalResult res;
  std::uint64_t victims = st.sharers;
  if (keeper != kNoOwner) victims &= ~(1ull << keeper);
  st.sharers &= ~victims;
  if (st.is_dirty() && ((victims >> st.dirty_owner) & 1u) != 0) {
    st.dirty_owner = kNoOwner;
  }
  // Set bits in ascending processor order.
  for (; victims != 0; victims &= victims - 1) {
    const auto q = static_cast<topo::ProcId>(std::countr_zero(victims));
    l1_[q].invalidate(line);
    l2_[q].invalidate(line);
    if (count_as_sharing) mon_.proc(q).invals_received += 1;
    if (q != requester) {
      if (count_as_sharing) mon_.proc(requester).invals_sent += 1;
      if (cluster_[requester] != cluster_[q]) res.any_remote = true;
      res.killed += 1;
    }
  }
  return res;
}

void MemorySystem::evict_line(topo::ProcId proc, LineAddr victim) {
  // Inclusion: an L2 victim may not linger in L1.
  l1_[proc].invalidate(victim);
  if (dir_.remove_sharer(victim, proc)) mon_.proc(proc).writebacks += 1;
}

std::uint64_t MemorySystem::access_line(topo::ProcId proc, LineAddr line,
                                        std::uint64_t addr, std::uint64_t lo,
                                        std::uint64_t hi, bool is_write,
                                        std::uint64_t now) {
  ProcCounters& c = mon_.proc(proc);
  Cache& l1 = l1_[proc];
  Cache& l2 = l2_[proc];
  std::uint64_t lat = 0;
  Service service = Service::kL1Hit;
  LineState* st = nullptr;  // The line's directory entry, once looked up.

  if (l1.access(line)) {
    service = Service::kL1Hit;
    lat += machine_.lat.l1_hit;
    // (presence in L1 implies presence in L2 by inclusion)
    l2.access(line);  // keep L2 LRU warm
  } else if (l2.access(line)) {
    service = Service::kL2Hit;
    lat += machine_.lat.l2_hit;
    l1.insert(line);  // The L1 victim stays valid in L2; nothing else to do.
  } else {
    // Full miss: consult the directory and the page map.
    const topo::ProcId home = pages_.home_of(addr, proc);
    const bool home_local = cluster_[proc] == cluster_[home];
    // One lookup for the whole miss. Evicting the L2 victim below can erase
    // only the victim's entry, which leaves this reference valid.
    st = &dir_.entry(line);

    if (st->is_dirty() && st->dirty_owner != proc) {
      // Serviced by forwarding from the dirty owner's cache; owner keeps a
      // shared copy and the data is written back towards home.
      const topo::ProcId owner = st->dirty_owner;
      const bool owner_local = cluster_[proc] == cluster_[owner];
      service = owner_local ? Service::kLocalCache : Service::kRemoteCache;
      lat += owner_local ? machine_.lat.local_cache : machine_.lat.remote_cache;
      st->dirty_owner = kNoOwner;
      mon_.proc(owner).writebacks += 1;
    } else {
      service = home_local ? Service::kLocalMem : Service::kRemoteMem;
      lat += home_local ? machine_.lat.local_mem : machine_.lat.remote_mem;
      const std::uint64_t wait =
          backend_->demand_fill(cluster_[home], addr, now + lat);
      lat += wait;
      c.contention_cycles += wait;
    }

    if (auto victim = l2.insert(line)) evict_line(proc, *victim);
    l1.insert(line);
    st->sharers |= 1ull << proc;
  }

  if (is_write) {
    LineState& ws = st != nullptr ? *st : dir_.entry(line);
    if (ws.dirty_owner != proc) {
      const InvalResult inv = invalidate_sharers(ws, line, proc, proc);
      if (inv.killed > 0) {
        c.upgrades += 1;
        lat += inv.any_remote ? machine_.lat.inval_remote
                              : machine_.lat.inval_local;
        for (AccessObserver* o : observers_) o->on_inval(addr, proc, inv.killed);
      }
      ws.sharers = 1ull << proc;
      ws.dirty_owner = proc;
    }
    c.writes += 1;
  } else {
    c.reads += 1;
  }

  c.serviced[static_cast<int>(service)] += 1;
  c.latency_cycles += lat;
  if (!observers_.empty()) {
    // The line is cached here by now, so its page is necessarily bound and
    // this lookup cannot first-touch (the tap never perturbs the page map).
    const AccessInfo info{proc,     addr,
                          service,  is_write,
                          static_cast<std::uint32_t>(lat),
                          pages_.home_of(addr, proc),
                          lo,       hi};
    for (AccessObserver* o : observers_) o->on_access(info);
  }
  return lat;
}

std::uint64_t MemorySystem::access(topo::ProcId proc, std::uint64_t addr,
                                   std::uint64_t bytes, bool is_write,
                                   std::uint64_t now) {
  COOL_CHECK(proc < machine_.n_procs, "access: processor id out of range");
  COOL_CHECK(bytes > 0, "access: empty range");
  LineAddr line = addr >> line_shift_;
  const LineAddr last = (addr + bytes - 1) >> line_shift_;
  std::uint64_t total = 0;
  if (!is_write && observers_.empty()) {
    // Read-hit filter (see the declaration). A read hit changes no directory
    // state and needs no page home, and with no observer nobody sees the
    // per-line event, so only the counters below are left to update.
    Cache& l1 = l1_[proc];
    Cache& l2 = l2_[proc];
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    for (; line <= last; ++line) {
      if (l1.access(line)) {
        l2.access(line);  // keep L2 LRU warm
        ++l1_hits;
      } else if (l2.access(line)) {
        l1.insert(line);
        ++l2_hits;
      } else {
        break;
      }
    }
    if (l1_hits + l2_hits != 0) {
      ProcCounters& c = mon_.proc(proc);
      total = l1_hits * machine_.lat.l1_hit + l2_hits * machine_.lat.l2_hit;
      c.reads += l1_hits + l2_hits;
      c.serviced[static_cast<int>(Service::kL1Hit)] += l1_hits;
      c.serviced[static_cast<int>(Service::kL2Hit)] += l2_hits;
      c.latency_cycles += total;
    }
  }
  for (; line <= last; ++line) {
    const std::uint64_t line_start = line << line_shift_;
    // The byte sub-range of this line the program actually touched: byte
    // precision lets the race detector distinguish true sharing from false
    // sharing within one line.
    const std::uint64_t lo = std::max(addr, line_start);
    const std::uint64_t hi = std::min(addr + bytes, line_start + machine_.line_bytes);
    total += access_line(proc, line, line_start, lo, hi, is_write, now + total);
  }
  return total;
}

std::uint64_t MemorySystem::migrate(topo::ProcId caller, std::uint64_t addr,
                                    std::uint64_t bytes,
                                    topo::ProcId new_home) {
  COOL_CHECK(caller < machine_.n_procs, "migrate: caller out of range");
  COOL_CHECK(new_home < machine_.n_procs, "migrate: target out of range");
  COOL_CHECK(bytes > 0, "migrate: empty range");

  const auto pages = pages_.pages_in(addr, bytes);
  const std::uint64_t lines_per_page = machine_.page_bytes / machine_.line_bytes;
  for (const PageAddr page : pages) {
    // Flush every cached line of the page (DASH migrates physical pages, so
    // stale cached copies must go; dirty data is written back first).
    const LineAddr first_line = page * lines_per_page;
    for (std::uint64_t i = 0; i < lines_per_page; ++i) {
      const LineAddr line = first_line + i;
      LineState* st = dir_.find(line);
      if (st == nullptr || !st->is_cached()) continue;
      if (st->is_dirty()) mon_.proc(st->dirty_owner).writebacks += 1;
      // Page-migration flushes are not write-sharing traffic.
      invalidate_sharers(*st, line, caller, kNoOwner,
                         /*count_as_sharing=*/false);
      dir_.erase(line);
    }
    pages_.bind_range(page * machine_.page_bytes, machine_.page_bytes,
                      new_home);
  }
  const auto n = static_cast<std::uint64_t>(pages.size());
  mon_.proc(caller).pages_migrated += n;
  return n * machine_.lat.page_copy;
}

std::uint64_t MemorySystem::prefetch(topo::ProcId proc, std::uint64_t addr,
                                     std::uint64_t bytes, std::uint64_t now) {
  COOL_CHECK(proc < machine_.n_procs, "prefetch: processor id out of range");
  COOL_CHECK(bytes > 0, "prefetch: empty range");
  const LineAddr first = addr >> line_shift_;
  const LineAddr last = (addr + bytes - 1) >> line_shift_;
  std::uint64_t brought = 0;
  for (LineAddr line = first; line <= last; ++line) {
    if (l2_[proc].contains(line)) continue;
    const LineState st = dir_.peek(line);
    if (st.is_dirty()) continue;  // leave dirty lines to demand misses
    const std::uint64_t line_start = line << line_shift_;
    const topo::ProcId home = pages_.home_of(line_start, proc);
    // Prefetches overlap execution but still consume memory bandwidth: they
    // add service backlog at the home controller (delaying demand misses)
    // without making this processor wait.
    backend_->post_fill(cluster_[home], line_start, now);
    if (auto victim = l2_[proc].insert(line)) evict_line(proc, *victim);
    l1_[proc].insert(line);
    dir_.add_sharer(line, proc);
    ++brought;
  }
  mon_.proc(proc).prefetches += brought;
  return brought;
}

void MemorySystem::flush_all_caches() {
  for (auto& c : l1_) c.clear();
  for (auto& c : l2_) c.clear();
  dir_.clear();
  backend_->reset();
}

}  // namespace cool::mem
