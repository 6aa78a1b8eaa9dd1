// Page-granularity placement map: which processor's local memory holds each
// page of the simulated shared address space.
//
// This models DASH's physical page placement: COOL's `new (proc)` registers
// pages at allocation time, `migrate()` rebinds whole pages (the paper's
// footnote 2: "the migrate call ... is implemented through the migration of
// entire pages spanned by the object"), and `home()` is a lookup (footnote 3).
// Unregistered pages are bound on first touch to the accessing processor's
// memory, matching "by default, memory is allocated from the local memory of
// the requesting processor".
//
// The map is dense: one ProcId per page, indexed by page number, grown on
// demand and kUnbound where no page is bound. Simulated addresses are
// arena-relative, so the runtime's default 1 GiB arena needs at most 1 MB of
// map. Pages at or beyond kMaxPages (an address from outside the arena, say,
// which tr() wrapped) fail a COOL_CHECK instead of growing the map.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "topology/machine.hpp"

namespace cool::mem {

using PageAddr = std::uint64_t;

class PageMap {
 public:
  /// Cap on the dense map: 2^22 pages, i.e. 16 GiB of simulated address
  /// space with 4 KiB pages, held in at most 16 MB.
  static constexpr PageAddr kMaxPages = PageAddr{1} << 22;

  explicit PageMap(const topo::MachineConfig& machine) : machine_(machine) {}

  /// Bind every page overlapping [addr, addr+size) to `home`'s local memory.
  /// Returns the number of pages bound. Re-binding an already-bound page is
  /// allowed (it is exactly what migrate does).
  std::size_t bind_range(std::uint64_t addr, std::uint64_t size,
                         topo::ProcId home);

  /// Home processor of the page containing `addr`; binds on first touch to
  /// `toucher` if unbound.
  topo::ProcId home_of(std::uint64_t addr, topo::ProcId toucher) {
    COOL_CHECK(toucher < machine_.n_procs, "home_of: processor id out of range");
    const PageAddr page = machine_.page_of(addr);
    if (page < home_.size() && home_[page] != kUnbound) return home_[page];
    return first_touch(page, toucher);
  }

  /// Home of `addr` if bound (does not first-touch). Throws if unbound.
  [[nodiscard]] topo::ProcId home_of_bound(std::uint64_t addr) const;

  [[nodiscard]] bool is_bound(std::uint64_t addr) const;

  /// Pages overlapped by [addr, addr+size).
  [[nodiscard]] std::vector<PageAddr> pages_in(std::uint64_t addr,
                                               std::uint64_t size) const;

  [[nodiscard]] std::size_t n_bound_pages() const noexcept { return n_bound_; }
  [[nodiscard]] std::uint64_t first_touch_count() const noexcept {
    return first_touches_;
  }

  /// Pages currently homed at each processor (load-balance diagnostics).
  [[nodiscard]] std::vector<std::size_t> pages_per_proc() const;

  void clear() {
    home_.clear();
    n_bound_ = 0;
    first_touches_ = 0;
  }

 private:
  static constexpr topo::ProcId kUnbound = 0xffffffffu;

  topo::ProcId first_touch(PageAddr page, topo::ProcId toucher);
  /// Make home_ cover `page`; fails a COOL_CHECK beyond kMaxPages.
  void cover(PageAddr page);

  const topo::MachineConfig& machine_;
  std::vector<topo::ProcId> home_;  ///< Home per page; kUnbound if unbound.
  std::size_t n_bound_ = 0;
  std::uint64_t first_touches_ = 0;
};

}  // namespace cool::mem
