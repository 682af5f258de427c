// Output checks of the benchmark.  Each one is computed from quantities
// the checked path does not produce itself: frequencies from the gear
// table, power bounds from cpu::PowerModel, served bytes against an
// in-process ExperimentRunner::run, and served counts against the query
// generator's own bookkeeping.  Every check returns an empty string when
// the output passes and a one-line reason when it does not.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/experiment.hpp"
#include "cpu/gear.hpp"
#include "cpu/power_model.hpp"

namespace perfbench {

/// Multi-node runs may invert adjacent gear times by up to this share
/// (contention realignment; tests/integration_test.cpp allows the same).
inline constexpr double kTimeInversionTolerance = 0.015;

/// Relative slack on the power-envelope energy bound, for rounding only.
inline constexpr double kEnergyBoundTolerance = 1e-6;

/// The paper's slowdown bound on one energy-time curve (results ordered
/// by gear, fastest first): for each adjacent pair,
///   1 - kTimeInversionTolerance <= T[i+1] / T[i] <= f[i] / f[i+1].
[[nodiscard]] std::string check_slowdown(
    const std::vector<gearsim::cluster::RunResult>& curve,
    const gearsim::cpu::GearTable& gears);

/// The sampling multimeters' integral lies within `tolerance` (relative)
/// of the exact energy.
[[nodiscard]] std::string check_metered_energy(
    const gearsim::cluster::RunResult& run, double tolerance);

/// nodes * idle_power(g) * T <= E <= nodes * active_power(g, 1) * T.
[[nodiscard]] std::string check_energy_bound(
    const gearsim::cluster::RunResult& run,
    const gearsim::cpu::PowerModel& power);

/// A repeated simulation of one point reproduces the first: dispatch
/// order hash, time, energy and work counts.
[[nodiscard]] std::string check_same_run(
    const gearsim::cluster::RunResult& first,
    const gearsim::cluster::RunResult& again);

/// An ok served response whose "results" array holds exactly
/// `expected_results` (each exec::to_json of a reference run), byte for
/// byte and in order.
[[nodiscard]] std::string check_served_bytes(
    std::string_view response,
    const std::vector<std::string>& expected_results);

/// What one served round did, from the daemon's side or as the query
/// generator predicts it.
struct ServedCounts {
  std::uint64_t first_phase_simulations = 0;
  std::uint64_t second_phase_simulations = 0;
  std::uint64_t second_phase_disk_hits = 0;  ///< Point lookups read from disk.
  std::uint64_t rejected = 0;
};

[[nodiscard]] std::string check_served_counts(const ServedCounts& expected,
                                              const ServedCounts& observed);

}  // namespace perfbench
