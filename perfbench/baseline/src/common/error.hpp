// Error type and checked-assertion macros used across the COOL reproduction.
//
// We deliberately throw on contract violations (rather than abort) so tests
// can exercise failure paths, e.g. migrating an unregistered range or naming
// a bad processor id.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>

namespace cool::util {

/// Exception thrown on any violated runtime contract in the library.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string what) : std::runtime_error(std::move(what)) {}
};

[[noreturn]] inline void raise(const char* file, int line, std::string msg) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": " + std::move(msg));
}

}  // namespace cool::util

/// Always-on contract check: throws cool::util::Error with location info.
#define COOL_CHECK(cond, msg)                                  \
  do {                                                         \
    if (!(cond)) {                                             \
      ::cool::util::raise(__FILE__, __LINE__,                  \
                          std::string("CHECK failed: " #cond   \
                                      " — ") +                 \
                              (msg));                          \
    }                                                          \
  } while (0)

/// Debug-only contract check (compiled out in NDEBUG builds).
#ifdef NDEBUG
#define COOL_DCHECK(cond, msg) ((void)0)
#else
#define COOL_DCHECK(cond, msg) COOL_CHECK(cond, msg)
#endif
