#include "memsim/cache.hpp"

#include <algorithm>

namespace cool::mem {

Cache::Cache(std::uint32_t capacity_bytes, std::uint32_t assoc,
             std::uint32_t line_bytes)
    : assoc_(assoc) {
  COOL_CHECK(assoc >= 1, "associativity must be >= 1");
  COOL_CHECK(line_bytes >= 1 && util::is_pow2(line_bytes),
             "line size must be a power of two");
  COOL_CHECK(capacity_bytes % (line_bytes * assoc) == 0,
             "capacity must be a multiple of line * assoc");
  n_sets_ = capacity_bytes / (line_bytes * assoc);
  COOL_CHECK(util::is_pow2(n_sets_), "set count must be a power of two");
  set_mask_ = n_sets_ - 1;
  const std::size_t n_ways = static_cast<std::size_t>(n_sets_) * assoc_;
  tags_.assign(n_ways, kEmpty);
  if (assoc_ > 1) stamps_.assign(n_ways, 0);
}

std::size_t Cache::find_assoc(LineAddr line) const noexcept {
  const std::size_t base = set_index(line) * assoc_;
  for (std::size_t i = base; i < base + assoc_; ++i) {
    if (tags_[i] == line) return i;
  }
  return kNotFound;
}

bool Cache::access_assoc(LineAddr line) noexcept {
  const std::size_t i = find_assoc(line);
  if (i == kNotFound) return false;
  stamps_[i] = ++stamp_;
  return true;
}

std::optional<LineAddr> Cache::insert_assoc(LineAddr line) {
  COOL_DCHECK(line != kEmpty, "line address collides with the empty tag");
  const std::size_t base = set_index(line) * assoc_;
  const std::size_t end = base + assoc_;
  std::size_t victim = kNotFound;
  for (std::size_t i = base; i < end; ++i) {
    if (tags_[i] == line) {
      stamps_[i] = ++stamp_;  // Already present: refresh only.
      return std::nullopt;
    }
    if (victim == kNotFound && tags_[i] == kEmpty) victim = i;  // Prefer empty.
  }
  std::optional<LineAddr> evicted;
  if (victim == kNotFound) {
    victim = base;
    for (std::size_t i = base + 1; i < end; ++i) {
      if (stamps_[i] < stamps_[victim]) victim = i;
    }
    evicted = tags_[victim];
  } else {
    ++occupied_;
  }
  tags_[victim] = line;
  stamps_[victim] = ++stamp_;
  return evicted;
}

void Cache::clear() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  occupied_ = 0;
}

}  // namespace cool::mem
