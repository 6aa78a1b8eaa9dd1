// Small bit-manipulation helpers shared by the cache and queue modules.
#pragma once

#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace cool::util {

constexpr bool is_pow2(std::uint64_t v) noexcept { return v != 0 && (v & (v - 1)) == 0; }

/// floor(log2(v)); requires v > 0.
constexpr unsigned log2_floor(std::uint64_t v) noexcept {
  return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/// log2 of a power of two (checked).
inline unsigned log2_exact(std::uint64_t v) {
  COOL_CHECK(is_pow2(v), "log2_exact requires a power of two");
  return log2_floor(v);
}

/// Round v up to the next multiple of `align` (align must be a power of two).
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align) noexcept {
  return (v + align - 1) & ~(align - 1);
}

/// Round v down to a multiple of `align` (align must be a power of two).
constexpr std::uint64_t align_down(std::uint64_t v, std::uint64_t align) noexcept {
  return v & ~(align - 1);
}

}  // namespace cool::util
