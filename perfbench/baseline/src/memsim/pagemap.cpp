#include "memsim/pagemap.hpp"

#include "common/error.hpp"

namespace cool::mem {

std::size_t PageMap::bind_range(std::uint64_t addr, std::uint64_t size,
                                topo::ProcId home) {
  COOL_CHECK(home < machine_.n_procs, "bind_range: processor id out of range");
  COOL_CHECK(size > 0, "bind_range: empty range");
  const PageAddr first = machine_.page_of(addr);
  const PageAddr last = machine_.page_of(addr + size - 1);
  for (PageAddr p = first; p <= last; ++p) map_[p] = home;
  return static_cast<std::size_t>(last - first + 1);
}

topo::ProcId PageMap::home_of(std::uint64_t addr, topo::ProcId toucher) {
  COOL_CHECK(toucher < machine_.n_procs, "home_of: processor id out of range");
  const PageAddr page = machine_.page_of(addr);
  auto [it, inserted] = map_.try_emplace(page, toucher);
  if (inserted) ++first_touches_;
  return it->second;
}

topo::ProcId PageMap::home_of_bound(std::uint64_t addr) const {
  const auto it = map_.find(machine_.page_of(addr));
  COOL_CHECK(it != map_.end(), "home_of_bound: page is not bound");
  return it->second;
}

bool PageMap::is_bound(std::uint64_t addr) const {
  return map_.contains(machine_.page_of(addr));
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
  for (const auto& [page, home] : map_) ++counts[home];
  return counts;
}

}  // namespace cool::mem
