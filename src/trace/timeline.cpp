#include "trace/timeline.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "util/assert.hpp"
#include "util/table.hpp"

namespace gearsim::trace {

namespace {

/// Stable color per call family: sends warm, receives/waits cool,
/// collectives purple.
const char* call_color(mpi::CallType t) {
  switch (t) {
    case mpi::CallType::kSend:
    case mpi::CallType::kIsend:
    case mpi::CallType::kSendrecv:
      return "#e4572e";
    case mpi::CallType::kRecv:
    case mpi::CallType::kIrecv:
    case mpi::CallType::kWait:
    case mpi::CallType::kWaitall:
      return "#17a398";
    default:
      return "#7c5cbf";  // Collectives and comm management.
  }
}

}  // namespace

std::string render_timeline(const Tracer& tracer, Seconds wall,
                            const std::string& title,
                            const TimelineOptions& options) {
  return render_timeline(tracer, wall, title, FaultLog{}, options);
}

std::string render_timeline(const Tracer& tracer, Seconds wall,
                            const std::string& title, const FaultLog& faults,
                            const TimelineOptions& options) {
  GEARSIM_REQUIRE(wall.value() > 0.0, "empty run");
  const std::size_t ranks = tracer.num_ranks();
  const double label_w = 64.0;
  const double top = 40.0;
  const double legend_h = 26.0;
  const double plot_w = options.width_px - label_w - 16.0;
  const double height =
      top + static_cast<double>(ranks) * options.row_height_px + legend_h + 28.0;
  const auto x_of = [&](Seconds t) {
    return label_w + t / wall * plot_w;
  };

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
     << options.width_px << "\" height=\"" << height << "\">\n"
     << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
     << "<text x=\"" << options.width_px / 2
     << "\" y=\"22\" font-size=\"15\" text-anchor=\"middle\""
        " font-family=\"sans-serif\">"
     << title << "</text>\n";

  for (std::size_t r = 0; r < ranks; ++r) {
    const double y = top + static_cast<double>(r) * options.row_height_px;
    const double bar_h = options.row_height_px - 6.0;
    // Compute background (active time shows through the gaps).
    os << "<rect x=\"" << label_w << "\" y=\"" << y << "\" width=\"" << plot_w
       << "\" height=\"" << bar_h
       << "\" fill=\"#dfe8d8\" stroke=\"#999\" stroke-width=\"0.4\"/>\n"
       << "<text x=\"" << label_w - 6 << "\" y=\"" << y + bar_h - 4
       << "\" font-size=\"11\" text-anchor=\"end\""
          " font-family=\"sans-serif\">r"
       << r << "</text>\n";
    for (const TraceRecord& rec : tracer.records(r)) {
      const double x0 = x_of(rec.enter);
      double w = x_of(rec.exit) - x0;
      w = std::max(w, plot_w * options.min_visible_fraction);
      os << "<rect x=\"" << x0 << "\" y=\"" << y << "\" width=\"" << w
         << "\" height=\"" << bar_h << "\" fill=\"" << call_color(rec.type)
         << "\"><title>" << mpi::to_string(rec.type) << " ["
         << fmt_fixed(rec.enter.value(), 4) << ", "
         << fmt_fixed(rec.exit.value(), 4) << "] s</title></rect>\n";
    }
  }

  // Fault markers: a red tick on the struck node's row; crashes span the
  // whole plot height.
  for (const FaultEvent& ev : faults) {
    if (ev.at > wall || ev.node >= ranks) continue;
    const double x = x_of(ev.at);
    const bool crash = ev.kind == FaultEventKind::kNodeCrash ||
                       ev.kind == FaultEventKind::kRestart;
    const double y0 = crash ? top
                            : top + static_cast<double>(ev.node) *
                                        options.row_height_px;
    const double y1 = crash ? top + static_cast<double>(ranks) *
                                        options.row_height_px
                            : y0 + options.row_height_px - 6.0;
    os << "<line x1=\"" << x << "\" y1=\"" << y0 << "\" x2=\"" << x
       << "\" y2=\"" << y1
       << "\" stroke=\"#c1121f\" stroke-width=\"1.5\""
          " stroke-dasharray=\"3,2\"><title>"
       << to_string(ev.kind) << " node " << ev.node << " @ "
       << fmt_fixed(ev.at.value(), 4) << " s";
    if (!ev.detail.empty()) os << " (" << ev.detail << ")";
    os << "</title></line>\n";
  }

  // Legend + time axis.
  const double ly = top + static_cast<double>(ranks) * options.row_height_px +
                    14.0;
  struct Entry {
    const char* color;
    const char* label;
  };
  const Entry entries[] = {{"#dfe8d8", "compute"},
                           {"#e4572e", "send"},
                           {"#17a398", "recv/wait"},
                           {"#7c5cbf", "collective"}};
  double lx = label_w;
  for (const auto& e : entries) {
    os << "<rect x=\"" << lx << "\" y=\"" << ly - 10
       << "\" width=\"12\" height=\"12\" fill=\"" << e.color << "\"/>\n"
       << "<text x=\"" << lx + 16 << "\" y=\"" << ly
       << "\" font-size=\"11\" font-family=\"sans-serif\">" << e.label
       << "</text>\n";
    lx += 110.0;
  }
  os << "<text x=\"" << label_w << "\" y=\"" << ly + 18
     << "\" font-size=\"11\" font-family=\"sans-serif\">0 s</text>\n"
     << "<text x=\"" << label_w + plot_w << "\" y=\"" << ly + 18
     << "\" font-size=\"11\" text-anchor=\"end\""
        " font-family=\"sans-serif\">"
     << fmt_fixed(wall.value(), 2) << " s</text>\n"
     << "</svg>\n";
  return os.str();
}

void write_timeline(const Tracer& tracer, Seconds wall,
                    const std::string& title, const std::string& path,
                    const FaultLog& faults, const TimelineOptions& options) {
  std::ofstream out(path);
  GEARSIM_REQUIRE(out.good(), "cannot open " + path + " for writing");
  out << render_timeline(tracer, wall, title, faults, options);
  GEARSIM_ENSURE(out.good(), "failed writing " + path);
}

}  // namespace gearsim::trace
