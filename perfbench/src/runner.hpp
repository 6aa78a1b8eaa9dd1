// Command-line arguments, per-run results and the two run modes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir;       ///< Where the traced run writes its spans.
  std::string reference_dir;   ///< Reference digests (<workload>.digest).
  bool write_reference = false;
  bool serve = false;          ///< Answer "round" lines (untraced rounds).
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Build a Runtime for `w` and its inputs; returns the set-up seconds.
double set_up(Workload& w, const cool::SystemConfig& cfg,
              std::unique_ptr<cool::Runtime>& rt);

/// Digest checks of one round: agreement with the run's first round (every
/// round, so rounds stay identical in their operations) and, on the default
/// seed, with the reference file. Prints the digest on the first round.
void check_digest(const Args& a, const Digest& d, Digest& first, Checks& c);

/// Set-ups per round (the round runs on the last one): set-up takes
/// milliseconds, so its median needs more samples than there are rounds,
/// spread over the whole run rather than taken in one burst. The first few
/// after a run are slower (2.2 against 1.2 ms on fork-join), so enough
/// follow that the median is a warm set-up.
constexpr int kSetupsPerRound = 20;

/// Untraced rounds on request: see main.cpp. Returns the exit code.
int serve(const Args& a);
RunReport run_traced(const Args& a);

}  // namespace perfbench
