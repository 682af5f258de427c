#include "sched/profile.hpp"

#include <algorithm>

#include "exec/sweep_runner.hpp"
#include "util/assert.hpp"
#include "workloads/registry.hpp"

namespace gearsim::sched {

WorkloadProfile::WorkloadProfile(std::string workload_name,
                                 std::vector<ConfigPoint> points)
    : name_(std::move(workload_name)), points_(std::move(points)) {
  GEARSIM_REQUIRE(!points_.empty(), "profile needs at least one point");
  for (const auto& p : points_) {
    GEARSIM_REQUIRE(p.nodes >= 1 && p.time.value() > 0.0 &&
                        p.energy.value() > 0.0,
                    "degenerate profile point");
  }
}

WorkloadProfile WorkloadProfile::measure(const exec::SweepRunner& runner,
                                         const cluster::Workload& workload,
                                         int max_nodes) {
  // grid() runs the points nodes-major x gears, through the worker pool
  // and the result cache.
  const std::vector<int> node_counts =
      workloads::paper_node_counts(workload, max_nodes);
  const std::vector<cluster::RunResult> runs =
      runner.grid(workload, node_counts);
  std::vector<ConfigPoint> points;
  points.reserve(runs.size());
  std::size_t i = 0;
  for (int n : node_counts) {
    for (std::size_t g = 0; g < runner.config().gears.size(); ++g, ++i) {
      const cluster::RunResult& r = runs[i];
      points.push_back(ConfigPoint{n, g, r.gear_label, r.wall, r.energy});
    }
  }
  return WorkloadProfile(workload.name(), std::move(points));
}

std::optional<ConfigPoint> WorkloadProfile::best(Objective objective,
                                                 int max_free_nodes,
                                                 Watts power_budget) const {
  std::optional<ConfigPoint> winner;
  auto score = [objective](const ConfigPoint& p) {
    switch (objective) {
      case Objective::kMinTime: return p.time.value();
      case Objective::kMinEnergy: return p.energy.value();
      case Objective::kMinEdp: return p.edp();
    }
    return p.time.value();
  };
  for (const auto& p : points_) {
    if (p.nodes > max_free_nodes) continue;
    if (p.mean_power() > power_budget) continue;
    if (!winner || score(p) < score(*winner) ||
        (score(p) == score(*winner) && p.nodes < winner->nodes)) {
      winner = p;
    }
  }
  return winner;
}

std::vector<ConfigPoint> WorkloadProfile::gear_frontier(int nodes) const {
  std::vector<ConfigPoint> at_width;
  for (const auto& p : points_) {
    if (p.nodes == nodes) at_width.push_back(p);
  }
  // Fastest first; among equal times the cheaper point survives pruning.
  std::stable_sort(at_width.begin(), at_width.end(),
                   [](const ConfigPoint& a, const ConfigPoint& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.mean_power() < b.mean_power();
                   });
  // Keep a point only when it is strictly slower AND strictly cheaper
  // than the last kept one (kept powers strictly decrease, so "cheaper
  // than the last" means "cheaper than all").  The fastest point always
  // survives.
  std::vector<ConfigPoint> frontier;
  for (const auto& p : at_width) {
    if (frontier.empty() || (p.time > frontier.back().time &&
                             p.mean_power() < frontier.back().mean_power())) {
      frontier.push_back(p);
    }
  }
  return frontier;
}

std::string to_string(WorkloadProfile::Objective o) {
  switch (o) {
    case WorkloadProfile::Objective::kMinTime: return "min-time";
    case WorkloadProfile::Objective::kMinEnergy: return "min-energy";
    case WorkloadProfile::Objective::kMinEdp: return "min-EDP";
  }
  return "?";
}

}  // namespace gearsim::sched
