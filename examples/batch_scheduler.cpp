// batch_scheduler — running a job queue through a power-capped rack.
//
//   $ batch_scheduler [cap_watts]          (default: 900)
//
// Profiles a mix of NAS jobs on the simulated cluster, then schedules the
// queue three ways (min-time FIFO, min-energy FIFO, min-time greedy
// backfill) under the cap, comparing makespan, energy, and peak draw —
// the operational payoff of a power-scalable cluster.
#include <iostream>
#include <string>

#include "exec/sweep_runner.hpp"
#include "sched/scheduler.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace gearsim;

  const double cap = argc > 1 ? std::stod(argv[1]) : 900.0;
  const exec::SweepRunner runner(cluster::athlon_cluster());

  std::cout << "Profiling workloads on the simulated Athlon-64 cluster...\n";
  const auto cg = workloads::make_workload("CG");
  const auto lu = workloads::make_workload("LU");
  const auto ep = workloads::make_workload("EP");
  const auto mg = workloads::make_workload("MG");
  const sched::WorkloadProfile cg_p =
      sched::WorkloadProfile::measure(runner, *cg, 8);
  const sched::WorkloadProfile lu_p =
      sched::WorkloadProfile::measure(runner, *lu, 8);
  const sched::WorkloadProfile ep_p =
      sched::WorkloadProfile::measure(runner, *ep, 8);
  const sched::WorkloadProfile mg_p =
      sched::WorkloadProfile::measure(runner, *mg, 8);

  const std::vector<sched::Job> queue = {
      {"cg-1", &cg_p}, {"lu-1", &lu_p}, {"ep-1", &ep_p},
      {"mg-1", &mg_p}, {"cg-2", &cg_p}, {"ep-2", &ep_p},
  };
  const sched::Machine rack{10, watts(cap), watts(85.0)};

  std::cout << "Scheduling " << queue.size()
            << " jobs on a 10-node rack capped at " << fmt_fixed(cap, 0)
            << " W\n\n";

  TextTable summary({"policy", "makespan [s]", "job energy [kJ]",
                     "total energy [kJ]", "peak draw [W]"});
  struct Variant {
    const char* name;
    sched::WorkloadProfile::Objective objective;
    sched::QueueDiscipline discipline;
  };
  const Variant variants[] = {
      {"min-time, FIFO", sched::WorkloadProfile::Objective::kMinTime,
       sched::QueueDiscipline::kFifo},
      {"min-energy, FIFO", sched::WorkloadProfile::Objective::kMinEnergy,
       sched::QueueDiscipline::kFifo},
      {"min-time, greedy", sched::WorkloadProfile::Objective::kMinTime,
       sched::QueueDiscipline::kGreedy},
      {"min-EDP, greedy", sched::WorkloadProfile::Objective::kMinEdp,
       sched::QueueDiscipline::kGreedy},
  };

  sched::ScheduleResult best{};
  std::string best_name;
  for (const auto& v : variants) {
    const sched::Scheduler scheduler(rack, v.objective, v.discipline);
    const sched::ScheduleResult r = scheduler.schedule(queue);
    summary.add_row({v.name, fmt_fixed(r.makespan.value(), 1),
                     fmt_fixed(r.job_energy.value() / 1e3, 1),
                     fmt_fixed(r.total_energy().value() / 1e3, 1),
                     fmt_fixed(r.peak_power.value(), 0)});
    if (best_name.empty() || r.makespan < best.makespan) {
      best = r;
      best_name = v.name;
    }
  }
  std::cout << summary.to_string() << '\n';

  std::cout << "Gantt (" << best_name << "):\n";
  TextTable gantt({"job", "nodes", "gear", "start [s]", "end [s]"});
  for (const auto& p : best.placements) {
    gantt.add_row({p.job_id, std::to_string(p.config.nodes),
                   std::to_string(p.config.gear_label),
                   fmt_fixed(p.start.value(), 1),
                   fmt_fixed(p.end.value(), 1)});
  }
  std::cout << gantt.to_string();
  return 0;
}
