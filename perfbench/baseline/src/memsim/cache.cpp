#include "memsim/cache.hpp"

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
  ways_.resize(static_cast<std::size_t>(n_sets_) * assoc_);
}

Cache::Way* Cache::find(LineAddr line) noexcept {
  Way* set = &ways_[static_cast<std::size_t>(set_index(line)) * assoc_];
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].lru != 0 && set[w].tag == line) return &set[w];
  }
  return nullptr;
}

const Cache::Way* Cache::find(LineAddr line) const noexcept {
  return const_cast<Cache*>(this)->find(line);
}

bool Cache::access(LineAddr line) {
  Way* w = find(line);
  if (w == nullptr) return false;
  w->lru = ++stamp_;
  return true;
}

bool Cache::contains(LineAddr line) const { return find(line) != nullptr; }

std::optional<LineAddr> Cache::insert(LineAddr line) {
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
  if (victim->lru != 0) {
    evicted = victim->tag;
  } else {
    ++occupied_;
  }
  victim->tag = line;
  victim->lru = ++stamp_;
  return evicted;
}

bool Cache::invalidate(LineAddr line) {
  Way* w = find(line);
  if (w == nullptr) return false;
  w->lru = 0;
  --occupied_;
  return true;
}

void Cache::clear() {
  for (Way& w : ways_) w.lru = 0;
  occupied_ = 0;
}

}  // namespace cool::mem
