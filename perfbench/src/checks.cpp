#include "checks.hpp"

#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

using gearsim::cluster::RunResult;

std::string where(const RunResult& r) {
  return "(nodes " + std::to_string(r.nodes) + ", gear " +
         std::to_string(r.gear_label) + ")";
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

}  // namespace

std::string check_slowdown(const std::vector<RunResult>& curve,
                           const gearsim::cpu::GearTable& gears) {
  for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
    const RunResult& fast = curve[i];
    const RunResult& slow = curve[i + 1];
    if (slow.gear_index != fast.gear_index + 1) {
      return "slowdown: curve is not ordered by gear at " + where(slow);
    }
    const double ratio = slow.wall.value() / fast.wall.value();
    const double bound = gears.gear(fast.gear_index).frequency.value() /
                         gears.gear(slow.gear_index).frequency.value();
    if (!(ratio >= 1.0 - kTimeInversionTolerance)) {
      return "slowdown: T" + std::to_string(slow.gear_label) + "/T" +
             std::to_string(fast.gear_label) + " = " + fmt(ratio) +
             " inverts by more than the tolerance " + where(slow);
    }
    if (!(ratio <= bound)) {
      return "slowdown: T" + std::to_string(slow.gear_label) + "/T" +
             std::to_string(fast.gear_label) + " = " + fmt(ratio) +
             " exceeds the frequency ratio " + fmt(bound) + " " + where(slow);
    }
  }
  return {};
}

std::string check_metered_energy(const RunResult& run, double tolerance) {
  if (!run.sampled_energy.has_value()) {
    return "metered energy: no sampled energy " + where(run);
  }
  const double exact = run.energy.value();
  const double error = std::abs(run.sampled_energy->value() - exact) / exact;
  if (!(error <= tolerance)) {
    return "metered energy: relative error " + fmt(error) + " > " +
           fmt(tolerance) + " " + where(run);
  }
  return {};
}

std::string check_energy_bound(const RunResult& run,
                               const gearsim::cpu::PowerModel& power) {
  const double t = run.wall.value();
  const double e = run.energy.value();
  const double n = static_cast<double>(run.nodes);
  const double low = n * power.idle_power(run.gear_index).value() * t;
  const double high = n * power.active_power(run.gear_index, 1.0).value() * t;
  if (!(t > 0.0)) return "energy bound: non-positive time " + where(run);
  if (!(e >= low * (1.0 - kEnergyBoundTolerance))) {
    return "energy bound: E = " + fmt(e) + " J below the idle floor " +
           fmt(low) + " J " + where(run);
  }
  if (!(e <= high * (1.0 + kEnergyBoundTolerance))) {
    return "energy bound: E = " + fmt(e) + " J above the active ceiling " +
           fmt(high) + " J " + where(run);
  }
  return {};
}

std::string check_same_run(const RunResult& first, const RunResult& again) {
  if (first.event_order_hash != again.event_order_hash) {
    return "determinism: event_order_hash differs " + where(again);
  }
  if (first.wall.value() != again.wall.value()) {
    return "determinism: time differs " + where(again);
  }
  if (first.energy.value() != again.energy.value()) {
    return "determinism: energy differs " + where(again);
  }
  if (first.mpi_calls != again.mpi_calls || first.messages != again.messages ||
      first.net_bytes != again.net_bytes) {
    return "determinism: work counts differ " + where(again);
  }
  return {};
}

std::string check_served_bytes(std::string_view response,
                               const std::vector<std::string>& expected) {
  // Protocol responses are canonical JSON with sorted keys, so the
  // results array sits between these two fixed markers.
  constexpr std::string_view kOpen = "\"results\":[";
  constexpr std::string_view kClose = "],\"status\":\"ok\"";
  if (response.empty() || response.front() != '{' ||
      response.back() != '}') {
    return "served bytes: not a JSON object";
  }
  const std::size_t open = response.find(kOpen);
  const std::size_t close = response.rfind(kClose);
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open + kOpen.size()) {
    return "served bytes: not an ok response with results";
  }
  std::string want;
  for (const std::string& r : expected) {
    if (!want.empty()) want += ',';
    want += r;
  }
  const std::string_view got =
      response.substr(open + kOpen.size(), close - open - kOpen.size());
  if (got != want) {
    std::size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
    return "served bytes: results differ from the in-process run at byte " +
           std::to_string(at);
  }
  return {};
}

std::string check_served_counts(const ServedCounts& expected,
                                const ServedCounts& observed) {
  auto mismatch = [](const char* what, std::uint64_t want,
                     std::uint64_t got) {
    return std::string("served counts: ") + what + " = " +
           std::to_string(got) + ", expected " + std::to_string(want);
  };
  if (observed.first_phase_simulations != expected.first_phase_simulations) {
    return mismatch("first-phase simulations",
                    expected.first_phase_simulations,
                    observed.first_phase_simulations);
  }
  if (observed.second_phase_simulations != expected.second_phase_simulations) {
    return mismatch("restarted-phase simulations",
                    expected.second_phase_simulations,
                    observed.second_phase_simulations);
  }
  if (observed.second_phase_disk_hits != expected.second_phase_disk_hits) {
    return mismatch("restarted-phase disk hits",
                    expected.second_phase_disk_hits,
                    observed.second_phase_disk_hits);
  }
  if (observed.rejected != expected.rejected) {
    return mismatch("rejected responses", expected.rejected,
                    observed.rejected);
  }
  return {};
}

}  // namespace perfbench
