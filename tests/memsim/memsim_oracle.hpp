// Test-only reference for the memsim hot path: Cache, Directory, PageMap and
// MemorySystem as they stood before the flattening (direct-mapped single
// probe, read-hit filter, dense page map, set-bit sharer walk). Every cache
// is the general true-LRU set-associative array, every line goes through
// access_line(), and the page map and directory are hash maps, so each
// simulated decision is obvious from the code. Differential tests drive the
// same operation streams through both and require identical results.
//
// It shares the data types (LineState, PerfMonitor, AccessObserver) and the
// memory-timing backends with the real model; those are not under test here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "memsim/access_observer.hpp"
#include "memsim/channel/backend.hpp"
#include "memsim/directory.hpp"
#include "memsim/perfmon.hpp"
#include "topology/machine.hpp"

namespace cool::mem::oracle {

class Cache {
 public:
  Cache(std::uint32_t capacity_bytes, std::uint32_t assoc,
        std::uint32_t line_bytes)
      : assoc_(assoc) {
    COOL_CHECK(assoc >= 1, "associativity must be >= 1");
    COOL_CHECK(line_bytes >= 1 && util::is_pow2(line_bytes),
               "line size must be a power of two");
    COOL_CHECK(capacity_bytes % (line_bytes * assoc) == 0,
               "capacity must be a multiple of line * assoc");
    n_sets_ = capacity_bytes / (line_bytes * assoc);
    COOL_CHECK(util::is_pow2(n_sets_), "set count must be a power of two");
    ways_.resize(static_cast<std::size_t>(n_sets_) * assoc_);
  }

  bool access(LineAddr line) {
    Way* w = find(line);
    if (w == nullptr) return false;
    w->lru = ++stamp_;
    return true;
  }

  [[nodiscard]] bool contains(LineAddr line) const {
    return const_cast<Cache*>(this)->find(line) != nullptr;
  }

  std::optional<LineAddr> insert(LineAddr line) {
    Way* set = &ways_[static_cast<std::size_t>(set_index(line)) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (set[w].lru != 0 && set[w].tag == line) {
        set[w].lru = ++stamp_;  // Already present: refresh only.
        return std::nullopt;
      }
    }
    Way* victim = nullptr;
    for (std::uint32_t w = 0; w < assoc_ && victim == nullptr; ++w) {
      if (set[w].lru == 0) victim = &set[w];  // Prefer an empty way.
    }
    if (victim == nullptr) {
      victim = &set[0];
      for (std::uint32_t w = 1; w < assoc_; ++w) {
        if (set[w].lru < victim->lru) victim = &set[w];
      }
    }
    std::optional<LineAddr> evicted;
    if (victim->lru != 0) evicted = victim->tag;
    victim->tag = line;
    victim->lru = ++stamp_;
    return evicted;
  }

  bool invalidate(LineAddr line) {
    Way* w = find(line);
    if (w == nullptr) return false;
    w->lru = 0;
    return true;
  }

  void clear() {
    for (Way& w : ways_) w.lru = 0;
  }

 private:
  struct Way {
    LineAddr tag = 0;
    std::uint64_t lru = 0;  ///< Monotonic access stamp; 0 means invalid.
  };

  [[nodiscard]] std::uint32_t set_index(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line) & (n_sets_ - 1);
  }
  Way* find(LineAddr line) noexcept {
    Way* set = &ways_[static_cast<std::size_t>(set_index(line)) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (set[w].lru != 0 && set[w].tag == line) return &set[w];
    }
    return nullptr;
  }

  std::uint32_t assoc_;
  std::uint32_t n_sets_;
  std::uint64_t stamp_ = 0;
  std::vector<Way> ways_;  ///< n_sets_ * assoc_, set-major.
};

class Directory {
 public:
  LineState& entry(LineAddr line) { return map_[line]; }

  [[nodiscard]] LineState peek(LineAddr line) const {
    const auto it = map_.find(line);
    return it == map_.end() ? LineState{} : it->second;
  }

  void add_sharer(LineAddr line, topo::ProcId p) {
    entry(line).sharers |= (1ull << p);
  }

  void remove_sharer(LineAddr line, topo::ProcId p) {
    auto it = map_.find(line);
    if (it == map_.end()) return;
    it->second.sharers &= ~(1ull << p);
    if (it->second.dirty_owner == p) it->second.dirty_owner = kNoOwner;
    if (it->second.sharers == 0) map_.erase(it);
  }

  void set_dirty(LineAddr line, topo::ProcId owner) {
    LineState& s = entry(line);
    s.sharers = (1ull << owner);
    s.dirty_owner = owner;
  }

  void clear_dirty(LineAddr line) {
    auto it = map_.find(line);
    if (it != map_.end()) it->second.dirty_owner = kNoOwner;
  }

  void clear() { map_.clear(); }

  [[nodiscard]] const std::unordered_map<LineAddr, LineState>& entries() const {
    return map_;
  }

 private:
  std::unordered_map<LineAddr, LineState> map_;
};

class PageMap {
 public:
  explicit PageMap(const topo::MachineConfig& machine) : machine_(machine) {}

  std::size_t bind_range(std::uint64_t addr, std::uint64_t size,
                         topo::ProcId home) {
    COOL_CHECK(home < machine_.n_procs, "bind_range: processor id out of range");
    COOL_CHECK(size > 0, "bind_range: empty range");
    const std::uint64_t first = addr / machine_.page_bytes;
    const std::uint64_t last = (addr + size - 1) / machine_.page_bytes;
    for (std::uint64_t p = first; p <= last; ++p) map_[p] = home;
    return static_cast<std::size_t>(last - first + 1);
  }

  topo::ProcId home_of(std::uint64_t addr, topo::ProcId toucher) {
    COOL_CHECK(toucher < machine_.n_procs, "home_of: processor id out of range");
    auto [it, inserted] = map_.try_emplace(addr / machine_.page_bytes, toucher);
    if (inserted) ++first_touches_;
    return it->second;
  }

  [[nodiscard]] bool is_bound(std::uint64_t addr) const {
    return map_.contains(addr / machine_.page_bytes);
  }

  [[nodiscard]] topo::ProcId home_of_bound(std::uint64_t addr) const {
    const auto it = map_.find(addr / machine_.page_bytes);
    COOL_CHECK(it != map_.end(), "home_of_bound: page is not bound");
    return it->second;
  }

  [[nodiscard]] std::vector<std::uint64_t> pages_in(std::uint64_t addr,
                                                    std::uint64_t size) const {
    COOL_CHECK(size > 0, "pages_in: empty range");
    std::vector<std::uint64_t> pages;
    const std::uint64_t first = addr / machine_.page_bytes;
    const std::uint64_t last = (addr + size - 1) / machine_.page_bytes;
    for (std::uint64_t p = first; p <= last; ++p) pages.push_back(p);
    return pages;
  }

  [[nodiscard]] std::size_t n_bound_pages() const noexcept { return map_.size(); }
  [[nodiscard]] std::uint64_t first_touch_count() const noexcept {
    return first_touches_;
  }

  [[nodiscard]] std::vector<std::size_t> pages_per_proc() const {
    std::vector<std::size_t> counts(machine_.n_procs, 0);
    for (const auto& [page, home] : map_) ++counts[home];
    return counts;
  }

 private:
  const topo::MachineConfig& machine_;
  std::unordered_map<std::uint64_t, topo::ProcId> map_;
  std::uint64_t first_touches_ = 0;
};

class MemorySystem {
 public:
  explicit MemorySystem(const topo::MachineConfig& machine,
                        const ChannelConfig& chan = {})
      : machine_(machine), pages_(machine_), mon_(machine.n_procs),
        backend_(make_channel_backend(machine, chan)) {
    machine_.validate();
    for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
      l1_.emplace_back(machine_.l1_bytes, machine_.l1_assoc,
                       machine_.line_bytes);
      l2_.emplace_back(machine_.l2_bytes, machine_.l2_assoc,
                       machine_.line_bytes);
    }
  }

  std::uint64_t access(topo::ProcId proc, std::uint64_t addr,
                       std::uint64_t bytes, bool is_write, std::uint64_t now) {
    COOL_CHECK(proc < machine_.n_procs, "access: processor id out of range");
    COOL_CHECK(bytes > 0, "access: empty range");
    const LineAddr first = addr / machine_.line_bytes;
    const LineAddr last = (addr + bytes - 1) / machine_.line_bytes;
    std::uint64_t total = 0;
    for (LineAddr line = first; line <= last; ++line) {
      const std::uint64_t line_start = line * machine_.line_bytes;
      const std::uint64_t lo = std::max(addr, line_start);
      const std::uint64_t hi =
          std::min(addr + bytes, line_start + machine_.line_bytes);
      total +=
          access_line(proc, line, line_start, lo, hi, is_write, now + total);
    }
    return total;
  }

  std::uint64_t migrate(topo::ProcId caller, std::uint64_t addr,
                        std::uint64_t bytes, topo::ProcId new_home) {
    COOL_CHECK(caller < machine_.n_procs, "migrate: caller out of range");
    COOL_CHECK(new_home < machine_.n_procs, "migrate: target out of range");
    COOL_CHECK(bytes > 0, "migrate: empty range");
    const auto pages = pages_.pages_in(addr, bytes);
    const std::uint64_t lines_per_page =
        machine_.page_bytes / machine_.line_bytes;
    for (const std::uint64_t page : pages) {
      const LineAddr first_line = page * lines_per_page;
      for (std::uint64_t i = 0; i < lines_per_page; ++i) {
        const LineAddr line = first_line + i;
        const LineState st = dir_.peek(line);
        if (!st.is_cached()) continue;
        if (st.is_dirty()) mon_.proc(st.dirty_owner).writebacks += 1;
        invalidate_sharers(line, caller, kNoOwner, /*count_as_sharing=*/false);
      }
      pages_.bind_range(page * machine_.page_bytes, machine_.page_bytes,
                        new_home);
    }
    const auto n = static_cast<std::uint64_t>(pages.size());
    mon_.proc(caller).pages_migrated += n;
    return n * machine_.lat.page_copy;
  }

  std::uint64_t prefetch(topo::ProcId proc, std::uint64_t addr,
                         std::uint64_t bytes, std::uint64_t now) {
    COOL_CHECK(proc < machine_.n_procs, "prefetch: processor id out of range");
    COOL_CHECK(bytes > 0, "prefetch: empty range");
    const LineAddr first = addr / machine_.line_bytes;
    const LineAddr last = (addr + bytes - 1) / machine_.line_bytes;
    std::uint64_t brought = 0;
    for (LineAddr line = first; line <= last; ++line) {
      if (l2_[proc].contains(line)) continue;
      const LineState st = dir_.peek(line);
      if (st.is_dirty()) continue;
      const topo::ProcId home =
          pages_.home_of(line * machine_.line_bytes, proc);
      backend_->post_fill(machine_.cluster_of(home),
                          line * machine_.line_bytes, now);
      if (auto victim = l2_[proc].insert(line)) evict_line(proc, *victim);
      l1_[proc].insert(line);
      dir_.add_sharer(line, proc);
      ++brought;
    }
    mon_.proc(proc).prefetches += brought;
    return brought;
  }

  void bind_range(std::uint64_t addr, std::uint64_t bytes, topo::ProcId home) {
    pages_.bind_range(addr, bytes, home);
  }

  void flush_all_caches() {
    for (auto& c : l1_) c.clear();
    for (auto& c : l2_) c.clear();
    dir_.clear();
    backend_->reset();
  }

  void add_observer(AccessObserver* obs) {
    if (obs != nullptr) observers_.push_back(obs);
  }

  PageMap& pages() noexcept { return pages_; }
  [[nodiscard]] const PerfMonitor& monitor() const noexcept { return mon_; }
  [[nodiscard]] const Directory& directory() const noexcept { return dir_; }

 private:
  struct InvalResult {
    int killed = 0;
    bool any_remote = false;
  };

  std::uint64_t access_line(topo::ProcId proc, LineAddr line,
                            std::uint64_t addr, std::uint64_t lo,
                            std::uint64_t hi, bool is_write,
                            std::uint64_t now) {
    ProcCounters& c = mon_.proc(proc);
    std::uint64_t lat = 0;
    Service service = Service::kL1Hit;

    if (l1_[proc].access(line)) {
      service = Service::kL1Hit;
      lat += machine_.lat.l1_hit;
      l2_[proc].access(line);
    } else if (l2_[proc].access(line)) {
      service = Service::kL2Hit;
      lat += machine_.lat.l2_hit;
      l1_[proc].insert(line);
    } else {
      const topo::ProcId home = pages_.home_of(addr, proc);
      const bool home_local = machine_.same_cluster(proc, home);
      const LineState st = dir_.peek(line);
      if (st.is_dirty() && st.dirty_owner != proc) {
        const topo::ProcId owner = st.dirty_owner;
        const bool owner_local = machine_.same_cluster(proc, owner);
        service = owner_local ? Service::kLocalCache : Service::kRemoteCache;
        lat += owner_local ? machine_.lat.local_cache
                           : machine_.lat.remote_cache;
        dir_.clear_dirty(line);
        mon_.proc(owner).writebacks += 1;
      } else {
        service = home_local ? Service::kLocalMem : Service::kRemoteMem;
        lat += home_local ? machine_.lat.local_mem : machine_.lat.remote_mem;
        const std::uint64_t wait = backend_->demand_fill(
            machine_.cluster_of(home), line * machine_.line_bytes, now + lat);
        lat += wait;
        c.contention_cycles += wait;
      }
      if (auto victim = l2_[proc].insert(line)) evict_line(proc, *victim);
      l1_[proc].insert(line);
      dir_.add_sharer(line, proc);
    }

    if (is_write) {
      const LineState st = dir_.peek(line);
      if (st.dirty_owner != proc) {
        const InvalResult inv = invalidate_sharers(line, proc, proc);
        if (inv.killed > 0) {
          c.upgrades += 1;
          lat += inv.any_remote ? machine_.lat.inval_remote
                                : machine_.lat.inval_local;
          for (AccessObserver* o : observers_) {
            o->on_inval(addr, proc, inv.killed);
          }
        }
        dir_.set_dirty(line, proc);
      }
      c.writes += 1;
    } else {
      c.reads += 1;
    }

    c.serviced[static_cast<int>(service)] += 1;
    c.latency_cycles += lat;
    if (!observers_.empty()) {
      const AccessInfo info{proc,     addr,
                            service,  is_write,
                            static_cast<std::uint32_t>(lat),
                            pages_.home_of(addr, proc),
                            lo,       hi};
      for (AccessObserver* o : observers_) o->on_access(info);
    }
    return lat;
  }

  void evict_line(topo::ProcId proc, LineAddr victim) {
    l1_[proc].invalidate(victim);
    const LineState st = dir_.peek(victim);
    if (st.dirty_owner == proc) {
      mon_.proc(proc).writebacks += 1;
      dir_.clear_dirty(victim);
    }
    dir_.remove_sharer(victim, proc);
  }

  InvalResult invalidate_sharers(LineAddr line, topo::ProcId requester,
                                 topo::ProcId keeper,
                                 bool count_as_sharing = true) {
    InvalResult res;
    const LineState st = dir_.peek(line);
    if (!st.is_cached()) return res;
    for (std::uint32_t q = 0; q < machine_.n_procs; ++q) {
      if (q == keeper || !st.has_sharer(q)) continue;
      l1_[q].invalidate(line);
      l2_[q].invalidate(line);
      dir_.remove_sharer(line, q);
      if (count_as_sharing) mon_.proc(q).invals_received += 1;
      if (q != requester) {
        if (count_as_sharing) mon_.proc(requester).invals_sent += 1;
        if (!machine_.same_cluster(requester, q)) res.any_remote = true;
        res.killed += 1;
      }
    }
    return res;
  }

  topo::MachineConfig machine_;
  std::vector<Cache> l1_;
  std::vector<Cache> l2_;
  Directory dir_;
  PageMap pages_;
  PerfMonitor mon_;
  std::unique_ptr<ChannelBackend> backend_;
  std::vector<AccessObserver*> observers_;
};

}  // namespace cool::mem::oracle
