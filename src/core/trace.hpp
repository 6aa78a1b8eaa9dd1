// Per-processor utilisation report from an execution trace.
//
// When SystemConfig::trace is set, the engines record typed obs::Events into
// per-processor ring buffers (obs/trace.hpp), read back merged with
// Runtime::trace_events(). render_trace_report reads the task spans in that
// stream — which processor ran which task, over which interval, and whether
// it was stolen — and prints a per-processor utilisation table plus a coarse
// ASCII timeline, handy for seeing exactly how an affinity hint changed the
// schedule. For the full event stream (steals, migrations, idle gaps) load
// Runtime::chrome_trace() in a trace viewer instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "topology/machine.hpp"

namespace cool {

/// Render per-processor spans/busy statistics of the kTaskSpan events in
/// `events` (other kinds are skipped) plus an ASCII timeline with `width`
/// columns ('#' ≥75% busy, '+' ≥25%, '.' >0, ' ' idle).
std::string render_trace_report(const std::vector<obs::Event>& events,
                                std::uint32_t n_procs, std::uint64_t finish,
                                int width = 64);

}  // namespace cool
