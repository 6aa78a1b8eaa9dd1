// Cache tag array: direct-mapped, or set-associative with true-LRU
// replacement.
//
// The simulator tracks only presence (tags), not data: application code runs
// natively and computes real values, while this model decides hit/miss and
// which line a fill evicts. Coherence state (sharers, dirty owner) lives in
// the Directory; the cache is notified of invalidations and reports evictions.
//
// A way is one 8-byte tag, kEmpty when invalid. Direct-mapped caches (the
// DASH L1 and L2) take the inline single-probe paths below: a set has one
// way, so there is no replacement choice to make and no LRU stamp to keep.
// Higher associativity keeps a per-way access stamp beside the tags and
// evicts the least recently used way, out of line.
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

  /// True if the line is present; refreshes LRU on a set-associative hit.
  bool access(LineAddr line) {
    if (assoc_ == 1) return tags_[set_index(line)] == line;
    return access_assoc(line);
  }

  /// True if present, without disturbing LRU (used by inclusion checks).
  [[nodiscard]] bool contains(LineAddr line) const {
    if (assoc_ == 1) return tags_[set_index(line)] == line;
    return find_assoc(line) != kNotFound;
  }

  /// Insert a line; returns the evicted victim line, if any.
  std::optional<LineAddr> insert(LineAddr line) {
    if (assoc_ != 1) return insert_assoc(line);
    COOL_DCHECK(line != kEmpty, "line address collides with the empty tag");
    LineAddr& way = tags_[set_index(line)];
    const LineAddr old = way;
    if (old == line) return std::nullopt;
    way = line;
    if (old == kEmpty) {
      ++occupied_;
      return std::nullopt;
    }
    return old;
  }

  /// Remove a line if present (coherence invalidation / inclusion victim).
  /// Returns true if the line was present.
  bool invalidate(LineAddr line) {
    const std::size_t i =
        assoc_ == 1 ? set_index(line) : find_assoc(line);
    if (i == kNotFound || tags_[i] != line) return false;
    tags_[i] = kEmpty;
    --occupied_;
    return true;
  }

  /// Drop every line (used by page migration flushes and tests).
  void clear();

  [[nodiscard]] std::uint32_t n_sets() const noexcept { return n_sets_; }
  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }
  [[nodiscard]] std::uint64_t occupancy() const noexcept { return occupied_; }

 private:
  /// Tag of an invalid way. No line address reaches it: even with one-byte
  /// lines it would be the last byte of the 64-bit address space.
  static constexpr LineAddr kEmpty = ~LineAddr{0};
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  [[nodiscard]] std::size_t set_index(LineAddr line) const noexcept {
    return static_cast<std::size_t>(line & set_mask_);
  }
  /// Index into tags_ of `line`'s way, or kNotFound (assoc_ > 1 only).
  [[nodiscard]] std::size_t find_assoc(LineAddr line) const noexcept;
  bool access_assoc(LineAddr line) noexcept;
  std::optional<LineAddr> insert_assoc(LineAddr line);

  std::uint32_t assoc_;
  std::uint32_t n_sets_;
  LineAddr set_mask_;
  std::uint64_t stamp_ = 0;
  std::uint64_t occupied_ = 0;
  std::vector<LineAddr> tags_;         ///< n_sets_ * assoc_, set-major.
  std::vector<std::uint64_t> stamps_;  ///< Last-access stamp per way; empty
                                       ///< when direct mapped.
};

}  // namespace cool::mem
