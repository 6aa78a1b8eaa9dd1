#include "memsim/pagemap.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace cool::mem {

void PageMap::cover(PageAddr page) {
  if (page < home_.size()) return;
  COOL_CHECK(page < kMaxPages,
             "page map: page " + std::to_string(page) +
                 " (simulated address " +
                 std::to_string(page * machine_.page_bytes) +
                 ") is beyond the dense map's cap of " +
                 std::to_string(kMaxPages) +
                 " pages; simulated addresses must be arena-relative");
  // Grow by powers of two so first touches in ascending order stay
  // amortised O(1).
  const PageAddr want = std::max<PageAddr>(std::bit_ceil(page + 1), 64);
  home_.resize(static_cast<std::size_t>(std::min(want, kMaxPages)), kUnbound);
}

std::size_t PageMap::bind_range(std::uint64_t addr, std::uint64_t size,
                                topo::ProcId home) {
  COOL_CHECK(home < machine_.n_procs, "bind_range: processor id out of range");
  COOL_CHECK(size > 0, "bind_range: empty range");
  const PageAddr first = machine_.page_of(addr);
  const PageAddr last = machine_.page_of(addr + size - 1);
  cover(last);
  for (PageAddr p = first; p <= last; ++p) {
    if (home_[p] == kUnbound) ++n_bound_;
    home_[p] = home;
  }
  return static_cast<std::size_t>(last - first + 1);
}

topo::ProcId PageMap::first_touch(PageAddr page, topo::ProcId toucher) {
  cover(page);
  home_[page] = toucher;
  ++n_bound_;
  ++first_touches_;
  return toucher;
}

topo::ProcId PageMap::home_of_bound(std::uint64_t addr) const {
  COOL_CHECK(is_bound(addr), "home_of_bound: page is not bound");
  return home_[machine_.page_of(addr)];
}

bool PageMap::is_bound(std::uint64_t addr) const {
  const PageAddr page = machine_.page_of(addr);
  return page < home_.size() && home_[page] != kUnbound;
}

std::vector<PageAddr> PageMap::pages_in(std::uint64_t addr,
                                        std::uint64_t size) const {
  COOL_CHECK(size > 0, "pages_in: empty range");
  std::vector<PageAddr> pages;
  const PageAddr first = machine_.page_of(addr);
  const PageAddr last = machine_.page_of(addr + size - 1);
  pages.reserve(static_cast<std::size_t>(last - first + 1));
  for (PageAddr p = first; p <= last; ++p) pages.push_back(p);
  return pages;
}

std::vector<std::size_t> PageMap::pages_per_proc() const {
  std::vector<std::size_t> counts(machine_.n_procs, 0);
  for (const topo::ProcId home : home_) {
    if (home != kUnbound) ++counts[home];
  }
  return counts;
}

}  // namespace cool::mem
