#include "trace/export.hpp"

#include <fstream>
#include <ostream>

#include "util/assert.hpp"
#include "util/csv.hpp"

namespace gearsim::trace {

const char* to_string(FaultEventKind k) {
  switch (k) {
    case FaultEventKind::kNodeCrash: return "node_crash";
    case FaultEventKind::kStragglerBegin: return "straggler_begin";
    case FaultEventKind::kStragglerEnd: return "straggler_end";
    case FaultEventKind::kLinkDrop: return "link_drop";
    case FaultEventKind::kMeterDropBegin: return "meter_drop_begin";
    case FaultEventKind::kMeterDropEnd: return "meter_drop_end";
    case FaultEventKind::kCheckpoint: return "checkpoint";
    case FaultEventKind::kRestart: return "restart";
  }
  return "?";
}

namespace {

void write_mpi_rows(const Tracer& tracer, std::ostream& out) {
  out << "rank,call,enter_s,exit_s,duration_s,bytes,peer\n";
  out.precision(9);
  for (std::size_t rank = 0; rank < tracer.num_ranks(); ++rank) {
    for (const TraceRecord& rec : tracer.records(rank)) {
      out << rank << ',' << csv_escape(mpi::to_string(rec.type)) << ','
          << rec.enter.value() << ',' << rec.exit.value() << ','
          << rec.duration().value() << ',' << rec.bytes << ',' << rec.peer
          << '\n';
    }
  }
}

}  // namespace

void export_csv(const Tracer& tracer, std::ostream& out) {
  write_mpi_rows(tracer, out);
}

void export_csv(const Tracer& tracer, std::ostream& out,
                const FaultLog& faults) {
  write_mpi_rows(tracer, out);
  for (const FaultEvent& ev : faults) {
    out << ev.node << ",fault:" << to_string(ev.kind) << ','
        << ev.at.value() << ',' << ev.at.value() << ",0,0,-1";
    // Details are free-form text ("dst=3, retries=2") — RFC-4180-quote
    // them so embedded commas/quotes/newlines survive a round trip.
    if (!ev.detail.empty()) out << ',' << csv_escape(ev.detail);
    out << '\n';
  }
}

void export_csv_file(const Tracer& tracer, const std::string& path,
                     const FaultLog& faults) {
  std::ofstream out(path);
  GEARSIM_REQUIRE(out.good(), "cannot open " + path + " for writing");
  if (faults.empty()) {
    export_csv(tracer, out);
  } else {
    export_csv(tracer, out, faults);
  }
  GEARSIM_ENSURE(out.good(), "failed writing " + path);
}

}  // namespace gearsim::trace
