// Task-span view of an execution trace.
//
// When SystemConfig::trace is set, the engines record typed obs::Events into
// per-processor ring buffers (obs/trace.hpp). TraceEvent is the legacy
// span-only projection of that stream — which processor ran which task, over
// which interval, and how the span ended — and render_trace_report turns
// spans into a per-processor utilisation table plus a coarse ASCII timeline,
// handy for seeing exactly how an affinity hint changed the schedule. For
// the full event stream (steals, migrations, idle gaps) use
// Runtime::trace_events() / Runtime::chrome_trace() instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "topology/machine.hpp"

namespace cool {

struct TraceEvent {
  enum class End : std::uint8_t {
    kCompleted,  ///< Task finished.
    kBlocked,    ///< Suspended on a mutex/cond/group.
    kYielded,    ///< Gave up the processor voluntarily.
  };

  std::uint64_t task_seq = 0;  ///< Scheduler-assigned spawn sequence number.
  topo::ProcId proc = 0;
  std::uint64_t start = 0;  ///< Simulated cycle the span began.
  std::uint64_t end = 0;    ///< Simulated cycle the span ended.
  bool stolen = false;      ///< The task was acquired by stealing.
  End how = End::kCompleted;
};

/// Render per-processor spans/busy statistics plus an ASCII timeline with
/// `width` columns ('#' ≥75% busy, '+' ≥25%, '.' >0, ' ' idle).
std::string render_trace_report(const std::vector<TraceEvent>& events,
                                std::uint32_t n_procs, std::uint64_t finish,
                                int width = 64);

/// Project the typed obs event stream down to its task spans (other event
/// kinds are skipped).
std::vector<TraceEvent> spans_from_events(const std::vector<obs::Event>& events);

}  // namespace cool
