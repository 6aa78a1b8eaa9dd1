// Shared experiment harness for the SPLASH-like case studies.
//
// Every application in apps/ exposes a Config (problem + scheduling variant)
// and a run() returning RunResult; the figure benchmarks sweep processor
// counts and variants through these helpers and print the paper's series.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cool.hpp"
#include "obs/metrics.hpp"

namespace cool::apps {

/// What a single simulated execution produced.
struct RunResult {
  std::uint64_t sim_cycles = 0;       ///< Parallel completion time.
  std::uint64_t tasks = 0;            ///< Tasks executed.
  mem::ProcCounters mem;              ///< Aggregated performance-monitor counters.
  sched::SchedStats sched;            ///< Scheduler statistics.
  double checksum = 0.0;              ///< Application-defined result digest.
  double placement_adherence = 0.0;   ///< Fraction of tasks run un-stolen.
  obs::Snapshot obs;                  ///< Full metrics snapshot of the run.
  /// Distinct races found by --race-check (0 when the detector is off).
  std::uint64_t races = 0;
};

/// Collect the standard result block from a finished runtime.
RunResult collect(const Runtime& rt, double checksum);

/// Speedup of `cycles` relative to `serial_cycles`.
inline double speedup(std::uint64_t serial_cycles, std::uint64_t cycles) {
  return cycles == 0 ? 0.0
                     : static_cast<double>(serial_cycles) /
                           static_cast<double>(cycles);
}

/// The processor counts the paper plots (up to `max_procs`).
std::vector<std::uint32_t> proc_series(std::uint32_t max_procs);

/// Millions of cycles, for compact tables.
inline double mcycles(std::uint64_t c) { return static_cast<double>(c) / 1e6; }

/// Per-1000-accesses miss rate.
inline double miss_rate(const mem::ProcCounters& c) {
  return c.accesses() == 0 ? 0.0
                           : 1000.0 * static_cast<double>(c.misses()) /
                                 static_cast<double>(c.accesses());
}

/// Fraction of misses serviced locally (local memory or in-cluster cache).
inline double local_fraction(const mem::ProcCounters& c) {
  const auto m = c.misses();
  return m == 0 ? 0.0
                : static_cast<double>(c.local_misses()) /
                      static_cast<double>(m);
}

}  // namespace cool::apps
