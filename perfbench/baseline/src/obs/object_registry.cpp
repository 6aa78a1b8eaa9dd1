#include "obs/object_registry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace cool::obs {

bool ObjectRegistry::add(std::string name, std::uint64_t addr,
                         std::uint64_t bytes, topo::ProcId home) {
  if (bytes == 0) return false;
  Entry r;
  r.name = std::move(name);
  r.start = addr;
  r.end = addr + bytes;
  r.home = home;
  auto it = std::lower_bound(
      reg_.begin(), reg_.end(), r.start,
      [](const Entry& a, std::uint64_t s) { return a.start < s; });
  if (it != reg_.end() && it->start < r.end) return false;
  if (it != reg_.begin() && std::prev(it)->end > r.start) return false;
  reg_.insert(it, std::move(r));
  return true;
}

std::size_t ObjectRegistry::find(std::uint64_t addr) const noexcept {
  auto it = std::upper_bound(
      reg_.begin(), reg_.end(), addr,
      [](std::uint64_t a, const Entry& r) { return a < r.start; });
  if (it == reg_.begin()) return npos;
  const auto idx = static_cast<std::size_t>(std::prev(it) - reg_.begin());
  return addr < reg_[idx].end ? idx : npos;
}

std::string ObjectRegistry::label(std::uint64_t addr) const {
  char buf[48];
  const std::size_t idx = find(addr);
  if (idx == npos) {
    std::snprintf(buf, sizeof buf, "0x%" PRIx64, addr);
    return buf;
  }
  const Entry& r = reg_[idx];
  if (addr == r.start) return r.name;
  std::snprintf(buf, sizeof buf, "+0x%" PRIx64, addr - r.start);
  return r.name + buf;
}

}  // namespace cool::obs
