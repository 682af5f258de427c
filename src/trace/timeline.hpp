// Per-rank activity timelines (Gantt-style) rendered as SVG.
//
// The paper's whole methodology is built on these timelines: active
// computation vs time blocked in MPI, per rank.  This renderer draws one
// row per rank over the run's duration — compute in the gaps, one colored
// block per MPI call (color by call type) — which makes load imbalance,
// pipelining, and collective synchronization visible at a glance.
// Injected fault events, when provided, appear as red markers on the row
// of the node they hit (crashes span all rows).
#pragma once

#include <string>

#include "trace/fault_events.hpp"
#include "trace/tracer.hpp"

namespace gearsim::trace {

struct TimelineOptions {
  double width_px = 960.0;
  double row_height_px = 22.0;
  /// Calls shorter than this fraction of the run are widened to stay
  /// visible (set 0 for exact proportions).
  double min_visible_fraction = 0.001;
};

/// Render the tracer's records over [0, wall] as an SVG document.
std::string render_timeline(const Tracer& tracer, Seconds wall,
                            const std::string& title,
                            const TimelineOptions& options = {});

/// Same, plus fault-event markers (events after `wall` are dropped).
std::string render_timeline(const Tracer& tracer, Seconds wall,
                            const std::string& title, const FaultLog& faults,
                            const TimelineOptions& options = {});

/// Render (with fault-event markers) and write to `path`.
void write_timeline(const Tracer& tracer, Seconds wall,
                    const std::string& title, const std::string& path,
                    const FaultLog& faults, const TimelineOptions& options = {});

}  // namespace gearsim::trace
