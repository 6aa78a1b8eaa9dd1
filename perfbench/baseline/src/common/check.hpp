// Runtime check levels.
//
// COOL_CHECK is always on and COOL_DCHECK vanishes under NDEBUG; between the
// two sits a family of *optional* runtime validations (the scheduler invariant
// checker in src/analysis/) whose cost is too high for every build but which
// must be switchable without recompiling. This header defines the knob:
//
//   COOL_CHECK_LEVEL=off       no optional validation at all
//   COOL_CHECK_LEVEL=default   validate at quiesce points (end of engine runs)
//   COOL_CHECK_LEVEL=paranoid  validate after every scheduler mutation
//
// The level is read from the environment once, on first use; tests override it
// in-process with set_check_level().
#pragma once

namespace cool::util {

enum class CheckLevel {
  kOff = 0,
  kDefault = 1,
  kParanoid = 2,
};

/// The active level. First call parses COOL_CHECK_LEVEL (off / default /
/// paranoid, defaulting to kDefault on absence or an unrecognised value);
/// later calls return the cached value.
[[nodiscard]] CheckLevel check_level() noexcept;

/// Override the level in-process (tests). Takes effect immediately.
void set_check_level(CheckLevel level) noexcept;

/// RAII override: sets `level` for the scope, restores the prior level after.
class ScopedCheckLevel {
 public:
  explicit ScopedCheckLevel(CheckLevel level) noexcept
      : prev_(check_level()) {
    set_check_level(level);
  }
  ScopedCheckLevel(const ScopedCheckLevel&) = delete;
  ScopedCheckLevel& operator=(const ScopedCheckLevel&) = delete;
  ~ScopedCheckLevel() { set_check_level(prev_); }

 private:
  CheckLevel prev_;
};

}  // namespace cool::util
