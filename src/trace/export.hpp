// Trace export: one CSV row per MPI call, for external timeline viewers
// and ad-hoc analysis (pandas, gnuplot).  Mirrors the paper's "writes a
// timestamp to a log file" instrumentation output.  When a run carried
// injected faults, their events are appended as extra rows (call column
// "fault:<kind>") so a single file tells the whole story.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/fault_events.hpp"
#include "trace/tracer.hpp"

namespace gearsim::trace {

/// Write `rank,call,enter_s,exit_s,duration_s,bytes,peer` rows (with a
/// header) for every record of every rank, in per-rank order.
void export_csv(const Tracer& tracer, std::ostream& out);

/// Same, plus one `node,fault:<kind>,at,at,0,0,-1` row per fault event
/// (detail appended as an eighth column), after the MPI rows.
void export_csv(const Tracer& tracer, std::ostream& out,
                const FaultLog& faults);

/// Convenience: write to a file; creates/truncates.
void export_csv_file(const Tracer& tracer, const std::string& path,
                     const FaultLog& faults);

}  // namespace gearsim::trace
