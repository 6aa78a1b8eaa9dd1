// Set-associative cache tag array with true-LRU replacement.
//
// The simulator tracks only presence (tags), not data: application code runs
// natively and computes real values, while this model decides hit/miss and
// which line a fill evicts. Coherence state (sharers, dirty owner) lives in
// the Directory; the cache is notified of invalidations and reports evictions.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace cool::mem {

/// A line address (byte address / line size).
using LineAddr = std::uint64_t;

class Cache {
 public:
  /// `capacity_bytes` total, `assoc` ways, `line_bytes` per line.
  Cache(std::uint32_t capacity_bytes, std::uint32_t assoc,
        std::uint32_t line_bytes);

  /// True if the line is present; refreshes LRU on hit.
  bool access(LineAddr line);

  /// True if present, without disturbing LRU (used by inclusion checks).
  [[nodiscard]] bool contains(LineAddr line) const;

  /// Insert a line; returns the evicted victim line, if any.
  std::optional<LineAddr> insert(LineAddr line);

  /// Remove a line if present (coherence invalidation / inclusion victim).
  /// Returns true if the line was present.
  bool invalidate(LineAddr line);

  /// Drop every line (used by page migration flushes and tests).
  void clear();

  [[nodiscard]] std::uint32_t n_sets() const noexcept { return n_sets_; }
  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }
  [[nodiscard]] std::uint64_t occupancy() const noexcept { return occupied_; }

 private:
  struct Way {
    LineAddr tag = 0;
    std::uint64_t lru = 0;  ///< Monotonic access stamp; 0 means invalid.
  };

  [[nodiscard]] std::uint32_t set_index(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line) & (n_sets_ - 1);
  }
  Way* find(LineAddr line) noexcept;
  [[nodiscard]] const Way* find(LineAddr line) const noexcept;

  std::uint32_t assoc_;
  std::uint32_t n_sets_;
  std::uint64_t stamp_ = 0;
  std::uint64_t occupied_ = 0;
  std::vector<Way> ways_;  ///< n_sets_ * assoc_, set-major.
};

}  // namespace cool::mem
