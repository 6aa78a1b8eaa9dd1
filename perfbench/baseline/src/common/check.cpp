#include "common/check.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace cool::util {
namespace {

// -1 = not yet initialised from the environment.
std::atomic<int> g_level{-1};

CheckLevel parse_env() noexcept {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before threads mutate
  // the environment; the result is cached in g_level.
  const char* v = std::getenv("COOL_CHECK_LEVEL");
  if (v == nullptr) return CheckLevel::kDefault;
  if (std::strcmp(v, "off") == 0) return CheckLevel::kOff;
  if (std::strcmp(v, "paranoid") == 0) return CheckLevel::kParanoid;
  return CheckLevel::kDefault;
}

}  // namespace

CheckLevel check_level() noexcept {
  int lv = g_level.load(std::memory_order_relaxed);
  if (lv < 0) {
    lv = static_cast<int>(parse_env());
    // Racing initialisers compute the same value; last store wins harmlessly.
    g_level.store(lv, std::memory_order_relaxed);
  }
  return static_cast<CheckLevel>(lv);
}

void set_check_level(CheckLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

}  // namespace cool::util
