// Directory-based invalidation coherence state, DASH-style.
//
// One logical directory entry per cached line: a sharer bitmask (up to 64
// processors) and an optional dirty owner. The MemorySystem consults and
// updates this state to classify where each miss is serviced (local memory,
// remote memory, or another processor's cache) and to count invalidations —
// the quantities the paper's DASH hardware performance monitor reports.
#pragma once

#include <bit>
#include <cstdint>
#include <unordered_map>

#include "common/error.hpp"
#include "memsim/cache.hpp"
#include "topology/machine.hpp"

namespace cool::mem {

constexpr topo::ProcId kNoOwner = 0xffffffffu;

struct LineState {
  std::uint64_t sharers = 0;       ///< Bit p set iff processor p caches the line.
  topo::ProcId dirty_owner = kNoOwner;  ///< Valid iff exactly one sharer holds it dirty.

  [[nodiscard]] bool is_cached() const noexcept { return sharers != 0; }
  [[nodiscard]] bool is_dirty() const noexcept { return dirty_owner != kNoOwner; }
  [[nodiscard]] bool has_sharer(topo::ProcId p) const noexcept {
    return (sharers >> p) & 1u;
  }
  [[nodiscard]] int sharer_count() const noexcept {
    return std::popcount(sharers);
  }
};

class Directory {
 public:
  /// State for a line; creates an uncached entry on demand.
  LineState& entry(LineAddr line) { return map_[line]; }

  /// Read-only view; returns a default (uncached) state if absent.
  [[nodiscard]] LineState peek(LineAddr line) const {
    const auto it = map_.find(line);
    return it == map_.end() ? LineState{} : it->second;
  }

  void add_sharer(LineAddr line, topo::ProcId p) {
    entry(line).sharers |= (1ull << p);
  }

  /// Mutable state for a cached line, or nullptr if it is uncached. The
  /// pointer (like entry()'s reference) stays valid until that line's entry
  /// is erased; inserting or erasing other lines does not move it.
  LineState* find(LineAddr line) {
    const auto it = map_.find(line);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Drop `p` from the line's sharers (erasing the entry when none remain).
  /// Returns true if `p` held the line dirty.
  bool remove_sharer(LineAddr line, topo::ProcId p) {
    auto it = map_.find(line);
    if (it == map_.end()) return false;
    it->second.sharers &= ~(1ull << p);
    const bool was_owner = it->second.dirty_owner == p;
    if (was_owner) it->second.dirty_owner = kNoOwner;
    if (it->second.sharers == 0) map_.erase(it);
    return was_owner;
  }

  /// Forget the line entirely (every sharer has been invalidated).
  void erase(LineAddr line) { map_.erase(line); }

  void set_dirty(LineAddr line, topo::ProcId owner) {
    LineState& s = entry(line);
    s.sharers = (1ull << owner);
    s.dirty_owner = owner;
  }

  void clear_dirty(LineAddr line) {
    auto it = map_.find(line);
    if (it != map_.end()) it->second.dirty_owner = kNoOwner;
  }

  [[nodiscard]] std::size_t n_entries() const noexcept { return map_.size(); }

  void clear() { map_.clear(); }

  /// Iterate entries (tests and migration flushes).
  [[nodiscard]] const std::unordered_map<LineAddr, LineState>& entries() const {
    return map_;
  }

 private:
  std::unordered_map<LineAddr, LineState> map_;
};

}  // namespace cool::mem
