// Workload configuration profiles for the scheduler.
//
// The paper's closing argument is operational: a machine room has a power
// (heat) budget, and a power-scalable cluster lets the scheduler choose
// *both* the node count and the gear of every job.  A WorkloadProfile is
// the table that choice is made from: one (nodes, gear) -> (time, energy,
// mean power) entry per valid configuration, measured by running the
// workload through the simulator once per configuration.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "cluster/workload.hpp"

namespace gearsim::exec {
class SweepRunner;  // exec/sweep_runner.hpp
}

namespace gearsim::sched {

struct ConfigPoint {
  int nodes = 0;
  std::size_t gear_index = 0;
  int gear_label = 0;
  Seconds time{};
  Joules energy{};

  /// Whole-run average draw — what counts against the machine's cap.
  [[nodiscard]] Watts mean_power() const { return energy / time; }
  [[nodiscard]] double edp() const { return energy.value() * time.value(); }
};

/// Immutable per-workload configuration table.
class WorkloadProfile {
 public:
  WorkloadProfile(std::string workload_name, std::vector<ConfigPoint> points);

  /// Profile `workload` on `runner`'s cluster: every valid node count up
  /// to `max_nodes` x every gear.  Points fan over `runner`'s worker pool
  /// (GEARSIM_SWEEP_JOBS honored) and — when the runner carries an
  /// exec::ResultCache — warm invocations skip the simulations entirely.
  /// Bit-identical to serial ExperimentRunner::run calls for any job
  /// count or cache state.
  static WorkloadProfile measure(const exec::SweepRunner& runner,
                                 const cluster::Workload& workload,
                                 int max_nodes);

  [[nodiscard]] const std::string& workload_name() const { return name_; }
  [[nodiscard]] const std::vector<ConfigPoint>& points() const {
    return points_;
  }

  /// The objective the scheduler optimizes when picking a configuration.
  enum class Objective { kMinTime, kMinEnergy, kMinEdp };

  /// Best configuration under the given resource constraints, or nullopt
  /// if none fits.  Ties break toward fewer nodes (frees the machine).
  [[nodiscard]] std::optional<ConfigPoint> best(Objective objective,
                                                int max_free_nodes,
                                                Watts power_budget) const;

  /// The Pareto-optimal gear ladder at one width: the points with
  /// exactly `nodes` nodes, fastest first, with every dominated point
  /// (slower and at least as power-hungry as a kept one) pruned — so
  /// time strictly rises and mean power strictly falls along the ladder.
  /// This is the structure the GearArbiter climbs.  Empty when the
  /// profile has no point at this width.
  [[nodiscard]] std::vector<ConfigPoint> gear_frontier(int nodes) const;

 private:
  std::string name_;
  std::vector<ConfigPoint> points_;
};

[[nodiscard]] std::string to_string(WorkloadProfile::Objective o);

}  // namespace gearsim::sched
