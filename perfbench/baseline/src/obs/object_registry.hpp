// ObjectRegistry — named address ranges for attribution.
//
// The locality profiler and the race detector both need the same mapping:
// simulated (arena-relative) address → the app-level object it belongs to
// ("col[17]", "grid[0]+0x40"). This registry is that mapping, extracted so
// the two consumers share one registration stream from
// Runtime::profile_register and report the same names.
//
// Ranges are kept sorted and disjoint; overlapping registrations are ignored
// (first wins) so an accidental alias can never double-attribute an access.
// Registration happens before a run; lookups during a run are read-only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/machine.hpp"

namespace cool::obs {

class ObjectRegistry {
 public:
  struct Entry {
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;  ///< Exclusive.
    topo::ProcId home = 0;  ///< Home at registration time (display only).
  };

  static constexpr std::size_t npos = SIZE_MAX;

  /// Register [addr, addr+bytes) under `name`. Returns false (and registers
  /// nothing) for empty ranges and ranges overlapping an existing entry.
  bool add(std::string name, std::uint64_t addr, std::uint64_t bytes,
           topo::ProcId home);

  /// Index of the entry containing `addr`, or npos.
  [[nodiscard]] std::size_t find(std::uint64_t addr) const noexcept;

  [[nodiscard]] const Entry& entry(std::size_t i) const { return reg_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return reg_.size(); }
  [[nodiscard]] bool empty() const noexcept { return reg_.empty(); }

  /// Human label for `addr`: "<name>" at an object's start, "<name>+0x<off>"
  /// inside one, "0x<addr>" for unregistered memory.
  [[nodiscard]] std::string label(std::uint64_t addr) const;

 private:
  std::vector<Entry> reg_;  ///< Sorted by start address.
};

}  // namespace cool::obs
