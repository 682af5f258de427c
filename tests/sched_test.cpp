// Tests for the energy-aware batch scheduler: profile queries, placement
// feasibility under a power cap, queue disciplines, objectives, the
// energy/makespan accounting identities, the LoadLeveler job-script
// parser, the gear arbiter, and the multi-tenant BatchScheduler (cap
// invariant, power redistribution, wall-limit kills, determinism).
#include <gtest/gtest.h>

#include "exec/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "workloads/registry.hpp"

namespace gearsim::sched {
namespace {

/// Hand-built profile: nodes in {1, 2, 4}, two gears ("fast"/"slow").
/// Perfect scaling; slow gear: 1.5x time at 0.6x power (0.9x energy).
WorkloadProfile toy_profile(const std::string& name, double t1 = 100.0,
                            double p_fast = 200.0) {
  std::vector<ConfigPoint> points;
  for (int n : {1, 2, 4}) {
    const double t_fast = t1 / n;
    const double power_fast = p_fast * n;
    points.push_back(ConfigPoint{n, 0, 1, seconds(t_fast),
                                 watts(power_fast) * seconds(t_fast)});
    const double t_slow = 1.5 * t_fast;
    const double power_slow = 0.6 * power_fast;
    points.push_back(ConfigPoint{n, 1, 2, seconds(t_slow),
                                 watts(power_slow) * seconds(t_slow)});
  }
  return WorkloadProfile(name, std::move(points));
}

Machine lab(int nodes = 4, double cap = 10000.0, double idle = 10.0) {
  return Machine{nodes, watts(cap), watts(idle)};
}

// --- profiles ----------------------------------------------------------------

TEST(Profile, BestMinTimePicksWideAndFast) {
  const WorkloadProfile p = toy_profile("J");
  const auto best = p.best(WorkloadProfile::Objective::kMinTime, 4,
                           watts(1e9));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->nodes, 4);
  EXPECT_EQ(best->gear_label, 1);
}

TEST(Profile, BestMinEnergyPicksSlowGear) {
  const WorkloadProfile p = toy_profile("J");
  const auto best = p.best(WorkloadProfile::Objective::kMinEnergy, 4,
                           watts(1e9));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->gear_label, 2);
  // Energy ties across node counts (perfect scaling): fewest nodes wins.
  EXPECT_EQ(best->nodes, 1);
}

TEST(Profile, BestRespectsNodeAndPowerLimits) {
  const WorkloadProfile p = toy_profile("J");
  const auto narrow = p.best(WorkloadProfile::Objective::kMinTime, 2,
                             watts(1e9));
  ASSERT_TRUE(narrow.has_value());
  EXPECT_LE(narrow->nodes, 2);
  // Cap below even the 1-node slow config's 120 W: infeasible.
  EXPECT_FALSE(p.best(WorkloadProfile::Objective::kMinTime, 4, watts(100.0))
                   .has_value());
}

TEST(Profile, MeasureBuildsFullTable) {
  const exec::SweepRunner runner(cluster::athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  const WorkloadProfile profile = WorkloadProfile::measure(runner, *cg, 4);
  // Node counts {1, 2, 4} x 6 gears.
  EXPECT_EQ(profile.points().size(), 18u);
  EXPECT_EQ(profile.workload_name(), "CG");
  for (const auto& pt : profile.points()) {
    EXPECT_GT(pt.mean_power().value(), 0.0);
  }
}

TEST(Profile, RejectsDegenerateInput) {
  EXPECT_THROW(WorkloadProfile("x", {}), ContractError);
  EXPECT_THROW(
      WorkloadProfile("x", {ConfigPoint{0, 0, 1, seconds(1), joules(1)}}),
      ContractError);
}

// --- scheduler basics ------------------------------------------------------------

TEST(Scheduler, SingleJobRunsImmediately) {
  const WorkloadProfile p = toy_profile("J");
  const Scheduler sched(lab());
  const auto result = sched.schedule({Job{"a", &p}});
  ASSERT_EQ(result.placements.size(), 1u);
  EXPECT_DOUBLE_EQ(result.placements[0].start.value(), 0.0);
  EXPECT_DOUBLE_EQ(result.makespan.value(), 25.0);  // 4 nodes fast.
  EXPECT_DOUBLE_EQ(result.job_energy.value(), 200.0 * 4 * 25.0);
}

TEST(Scheduler, TwoJobsShareTheMachine) {
  const WorkloadProfile p = toy_profile("J");
  // 4 nodes: min-time would want 4 each; with two queued jobs FIFO places
  // the first on all 4, the second waits.
  const Scheduler sched(lab());
  const auto result = sched.schedule({Job{"a", &p}, Job{"b", &p}});
  const auto& a = result.placement("a");
  const auto& b = result.placement("b");
  EXPECT_DOUBLE_EQ(a.start.value(), 0.0);
  EXPECT_DOUBLE_EQ(b.start.value(), a.end.value());
  EXPECT_DOUBLE_EQ(result.makespan.value(), 50.0);
}

TEST(Scheduler, PowerCapForcesNarrowOrSlowPlacements) {
  const WorkloadProfile p = toy_profile("J");
  // Cap 520 W, idle 10 W: 4-node fast (800 W) infeasible; 4-node slow
  // (480 W) fits; min-time picks the fastest feasible = 2-node fast
  // (400 + 2*10 = 420 W) vs 4-node slow (480 W, 37.5 s)... 2-node fast is
  // 50 s; 4-node slow is 37.5 s -> slow-but-wide wins.
  const Scheduler sched(lab(4, 520.0, 10.0));
  const auto result = sched.schedule({Job{"a", &p}});
  EXPECT_EQ(result.placement("a").config.nodes, 4);
  EXPECT_EQ(result.placement("a").config.gear_label, 2);
  EXPECT_LE(result.peak_power.value(), 520.0);
}

TEST(Scheduler, CapAccountsForParkedNodes) {
  const WorkloadProfile p = toy_profile("J");
  // 1-node fast draws 200 W; 3 parked nodes draw 150 W.  Cap 340 W:
  // 200 + 150 = 350 > cap, so 1-node fast is infeasible even though the
  // job alone fits; 1-node slow is 120 + 150 = 270 W.
  const Scheduler sched(lab(4, 340.0, 50.0));
  const auto result = sched.schedule({Job{"a", &p}});
  EXPECT_EQ(result.placement("a").config.gear_label, 2);
}

TEST(Scheduler, ImpossibleJobThrowsUpFront) {
  const WorkloadProfile p = toy_profile("J");
  const Scheduler sched(lab(4, 125.0, 10.0));  // Under every config's draw.
  EXPECT_THROW((void)sched.schedule({Job{"a", &p}}), ContractError);
}

TEST(Scheduler, MachineValidation) {
  EXPECT_THROW(Scheduler(Machine{0, watts(100), watts(1)}), ContractError);
  // Cap below parked draw of the whole machine.
  EXPECT_THROW(Scheduler(Machine{10, watts(100), watts(50)}), ContractError);
}

// --- disciplines and objectives ----------------------------------------------------

TEST(Scheduler, GreedyBackfillsAroundAWideJob) {
  // Jobs that can ONLY run wide (4 nodes) vs a 1-node job.
  const WorkloadProfile wide(
      "wide", {ConfigPoint{4, 0, 1, seconds(25.0), joules(20000.0)}});
  const WorkloadProfile narrow(
      "narrow", {ConfigPoint{1, 0, 1, seconds(10.0), joules(2000.0)}});
  const std::vector<Job> queue = {Job{"w1", &wide}, Job{"w2", &wide},
                                  Job{"n", &narrow}};
  const Machine five{5, watts(1e9), watts(10.0)};
  // FIFO on a 5-node machine: w1 takes 4, w2 needs 4 but only 1 is free,
  // so it waits — and n waits behind it despite the free node.
  const auto fifo = Scheduler(five, WorkloadProfile::Objective::kMinTime,
                              QueueDiscipline::kFifo)
                        .schedule(queue);
  // Greedy backfills n onto the spare node immediately.
  const auto greedy = Scheduler(five, WorkloadProfile::Objective::kMinTime,
                                QueueDiscipline::kGreedy)
                          .schedule(queue);
  EXPECT_GT(fifo.placement("n").start.value(), 0.0);
  EXPECT_DOUBLE_EQ(greedy.placement("n").start.value(), 0.0);
  EXPECT_LE(greedy.makespan.value(), fifo.makespan.value());
}

TEST(Scheduler, MinEnergyObjectiveUsesLessJobEnergy) {
  const WorkloadProfile p = toy_profile("J");
  const std::vector<Job> queue = {Job{"a", &p}, Job{"b", &p}};
  const auto fast = Scheduler(lab(), WorkloadProfile::Objective::kMinTime)
                        .schedule(queue);
  const auto frugal =
      Scheduler(lab(), WorkloadProfile::Objective::kMinEnergy)
          .schedule(queue);
  EXPECT_LT(frugal.job_energy.value(), fast.job_energy.value());
  EXPECT_GE(frugal.makespan.value(), fast.makespan.value());
}

// --- accounting identities -----------------------------------------------------------

TEST(Scheduler, EnergyAndPeakIdentities) {
  const WorkloadProfile p = toy_profile("J");
  const Scheduler sched(lab(4, 900.0, 25.0));
  const auto result = sched.schedule({Job{"a", &p}, Job{"b", &p}});
  // Job energy is the sum of placed configurations' energies.
  Joules expected{};
  for (const auto& pl : result.placements) expected += pl.config.energy;
  EXPECT_DOUBLE_EQ(result.job_energy.value(), expected.value());
  EXPECT_DOUBLE_EQ(result.total_energy().value(),
                   (result.job_energy + result.idle_energy).value());
  EXPECT_LE(result.peak_power.value(), 900.0);
  EXPECT_GT(result.peak_power.value(), 0.0);
  // Placements never overlap beyond the machine's node count.
  for (const auto& x : result.placements) {
    int concurrent = 0;
    for (const auto& y : result.placements) {
      if (y.start < x.end && x.start < y.end) concurrent += y.config.nodes;
    }
    EXPECT_LE(concurrent, 4);
  }
}

TEST(Scheduler, IdleEnergyCoversParkedNodes) {
  // One 1-node job on a 4-node machine: 3 nodes parked for the whole run
  // plus the placement nodes... idle integral = 3 * idle * makespan.
  const WorkloadProfile narrow(
      "n", {ConfigPoint{1, 0, 1, seconds(10.0), joules(2000.0)}});
  const Scheduler sched(lab(4, 1e6, 30.0));
  const auto result = sched.schedule({Job{"a", &narrow}});
  EXPECT_DOUBLE_EQ(result.makespan.value(), 10.0);
  EXPECT_DOUBLE_EQ(result.idle_energy.value(), 3 * 30.0 * 10.0);
}

TEST(Scheduler, EndToEndWithMeasuredProfiles) {
  // Full pipeline: profile real workloads on the simulated cluster, then
  // schedule a mixed queue under the paper's rack-power scenario.
  const exec::SweepRunner runner(cluster::athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  const auto ep = workloads::make_workload("EP");
  const WorkloadProfile cg_prof = WorkloadProfile::measure(runner, *cg, 8);
  const WorkloadProfile ep_prof = WorkloadProfile::measure(runner, *ep, 8);
  const Machine rack{10, watts(900.0), watts(85.0)};
  const auto result =
      Scheduler(rack, WorkloadProfile::Objective::kMinTime)
          .schedule({Job{"cg", &cg_prof}, Job{"ep", &ep_prof}});
  EXPECT_EQ(result.placements.size(), 2u);
  EXPECT_LE(result.peak_power.value(), 900.0 + 1e-9);
  EXPECT_GT(result.makespan.value(), 0.0);
}

// --- cached profile measurement ----------------------------------------------

TEST(Profile, MeasureThroughSweepRunnerMatchesSerialAndCaches) {
  // The reference table, spelled out: one serial ExperimentRunner::run per
  // (nodes, gear), nodes-major.
  const cluster::ExperimentRunner serial(cluster::athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  std::vector<ConfigPoint> expected;
  for (int n : workloads::paper_node_counts(*cg, 4)) {
    for (std::size_t g = 0; g < serial.num_gears(); ++g) {
      const cluster::RunResult r = serial.run(*cg, n, g);
      expected.push_back(ConfigPoint{n, g, r.gear_label, r.wall, r.energy});
    }
  }
  const WorkloadProfile base(cg->name(), std::move(expected));

  exec::ResultCache cache;
  exec::SweepOptions opts;
  opts.jobs = 2;
  opts.cache = &cache;
  const exec::SweepRunner runner(cluster::athlon_cluster(), opts);
  const WorkloadProfile warm = WorkloadProfile::measure(runner, *cg, 4);
  ASSERT_EQ(warm.points().size(), base.points().size());
  for (std::size_t i = 0; i < base.points().size(); ++i) {
    EXPECT_EQ(warm.points()[i].nodes, base.points()[i].nodes);
    EXPECT_EQ(warm.points()[i].gear_index, base.points()[i].gear_index);
    EXPECT_EQ(warm.points()[i].gear_label, base.points()[i].gear_label);
    EXPECT_EQ(warm.points()[i].time.value(), base.points()[i].time.value());
    EXPECT_EQ(warm.points()[i].energy.value(),
              base.points()[i].energy.value());
  }
  EXPECT_EQ(runner.cache_stats().misses, base.points().size());
  EXPECT_EQ(runner.cache_stats().hits, 0u);

  // The second measurement is served entirely from the cache — and is
  // still bit-identical.
  const WorkloadProfile again = WorkloadProfile::measure(runner, *cg, 4);
  EXPECT_EQ(runner.cache_stats().hits, base.points().size());
  for (std::size_t i = 0; i < base.points().size(); ++i) {
    EXPECT_EQ(again.points()[i].time.value(), base.points()[i].time.value());
    EXPECT_EQ(again.points()[i].energy.value(),
              base.points()[i].energy.value());
  }
}

// --- gear frontiers ----------------------------------------------------------

TEST(Profile, GearFrontierIsStrictlyMonotone) {
  const WorkloadProfile p = toy_profile("J");
  const auto ladder = p.gear_frontier(4);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder.front().gear_label, 1);  // Fastest first.
  EXPECT_EQ(ladder.back().gear_label, 2);
  EXPECT_LT(ladder[0].time.value(), ladder[1].time.value());
  EXPECT_GT(ladder[0].mean_power().value(), ladder[1].mean_power().value());
  EXPECT_TRUE(p.gear_frontier(3).empty());  // No points at this width.
}

TEST(Profile, GearFrontierPrunesDominatedPoints) {
  // "mid" is slower AND hungrier than "fast": off the frontier.
  std::vector<ConfigPoint> points;
  points.push_back(
      ConfigPoint{1, 0, 1, seconds(100.0), watts(200.0) * seconds(100.0)});
  points.push_back(
      ConfigPoint{1, 1, 2, seconds(120.0), watts(210.0) * seconds(120.0)});
  points.push_back(
      ConfigPoint{1, 2, 3, seconds(150.0), watts(120.0) * seconds(150.0)});
  const WorkloadProfile p("J", std::move(points));
  const auto ladder = p.gear_frontier(1);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].gear_label, 1);
  EXPECT_EQ(ladder[1].gear_label, 3);
}

// --- job scripts -------------------------------------------------------------

TEST(JobScript, ParsesAFullLoadLevelerStanza) {
  const std::string text = R"(#!/bin/bash
#@ job_name = cg-large
#@ job_type = parallel
#@ class = general
#@ island_count = 1
#@ total_tasks = 8
#@ wall_clock_limit = 01:00:00
#@ energy_policy_tag = cg_tag
#@ minimize_time_to_solution = yes
#@ arrival = 120
#@ workload = CG
#@ queue
mpiexec -n 8 ./cg.B.8
)";
  const JobScript job = parse_job_script(text);
  EXPECT_EQ(job.id, "cg-large");
  EXPECT_EQ(job.workload, "CG");
  EXPECT_EQ(job.total_tasks, 8);
  EXPECT_DOUBLE_EQ(job.wall_clock_limit.value(), 3600.0);
  EXPECT_DOUBLE_EQ(job.arrival.value(), 120.0);
  EXPECT_EQ(job.tag, EnergyPolicyTag::kMinimizeTimeToSolution);
}

TEST(JobScript, ParsesMultipleStanzasInSubmissionOrder) {
  const std::string text =
      "#@ job_name = a\n#@ minimize_energy_to_solution = yes\n#@ queue\n"
      "#@ total_tasks = 2\n#@ queue\n";
  const auto jobs = parse_job_scripts(text);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "a");
  EXPECT_EQ(jobs[0].tag, EnergyPolicyTag::kMinimizeEnergyToSolution);
  EXPECT_EQ(jobs[1].id, "job2");  // Positional default.
  EXPECT_EQ(jobs[1].total_tasks, 2);
  EXPECT_EQ(jobs[1].tag, EnergyPolicyTag::kNone);
  EXPECT_DOUBLE_EQ(jobs[1].wall_clock_limit.value(), 0.0);  // Unlimited.
}

TEST(JobScript, WallClockLimitForms) {
  EXPECT_DOUBLE_EQ(parse_wall_clock_limit("01:30:00").value(), 5400.0);
  EXPECT_DOUBLE_EQ(parse_wall_clock_limit("05:00").value(), 300.0);
  EXPECT_DOUBLE_EQ(parse_wall_clock_limit("90").value(), 90.0);
  EXPECT_THROW((void)parse_wall_clock_limit("1:2:3:4"), ContractError);
  EXPECT_THROW((void)parse_wall_clock_limit("abc"), ContractError);
  EXPECT_THROW((void)parse_wall_clock_limit("-5"), ContractError);
}

TEST(JobScript, EnergyPolicyTagBindings) {
  // The tag may name the policy directly, without a minimize_* line.
  const auto direct = parse_job_script(
      "#@ energy_policy_tag = minimize_energy_to_solution\n#@ queue\n");
  EXPECT_EQ(direct.tag, EnergyPolicyTag::kMinimizeEnergyToSolution);
  // A site-specific tag name with no minimize_* line means "none".
  const auto site = parse_job_script(
      "#@ energy_policy_tag = my_project_tag\n#@ queue\n");
  EXPECT_EQ(site.tag, EnergyPolicyTag::kNone);
  // Contradictory minimize_* lines are a script bug.
  EXPECT_THROW((void)parse_job_script(
                   "#@ minimize_time_to_solution = yes\n"
                   "#@ minimize_energy_to_solution = yes\n#@ queue\n"),
               ContractError);
}

TEST(JobScript, MalformedScriptsThrow) {
  // A trailing stanza that never queues is a script bug.
  EXPECT_THROW((void)parse_job_scripts("#@ job_name = lost\n"),
               ContractError);
  EXPECT_THROW((void)parse_job_scripts("#@ total_tasks = 0\n#@ queue\n"),
               ContractError);
  EXPECT_THROW((void)parse_job_scripts("#@ job_type = serial\n#@ queue\n"),
               ContractError);
  EXPECT_THROW((void)parse_job_scripts("#@ no equals sign here\n"),
               ContractError);
}

// --- gear arbiter ------------------------------------------------------------

TEST(Arbiter, GrantsHeadroomByPriorityClass) {
  const WorkloadProfile p = toy_profile("J");
  // 1-node ladder: fast 100 s @ 200 W, slow 150 s @ 120 W.  Budget 330 W
  // fits one upshift: the time-tagged job gets it regardless of
  // submission order.
  const GearArbiter arbiter(watts(330.0), watts(0.0));
  const std::vector<ArbiterJob> jobs = {
      ArbiterJob{&p, 1, EnergyPolicyTag::kNone},
      ArbiterJob{&p, 1, EnergyPolicyTag::kMinimizeTimeToSolution}};
  const auto outcome = arbiter.arbitrate(jobs, 0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->gears[0].gear_label, 2);  // kNone stays slow.
  EXPECT_EQ(outcome->gears[1].gear_label, 1);  // Time-tagged runs fast.
  EXPECT_DOUBLE_EQ(outcome->draw.value(), 320.0);
}

TEST(Arbiter, MinEnergyJobNeverClimbsPastItsOptimalRung) {
  const WorkloadProfile p = toy_profile("J");
  // Slow is the energy optimum (0.9x): even with unlimited budget the
  // min-energy job holds it while the untagged job takes the headroom.
  const GearArbiter arbiter(watts(1e9), watts(0.0));
  const auto outcome = arbiter.arbitrate(
      {ArbiterJob{&p, 1, EnergyPolicyTag::kMinimizeEnergyToSolution},
       ArbiterJob{&p, 1, EnergyPolicyTag::kNone}},
      0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->gears[0].gear_label, 2);
  EXPECT_EQ(outcome->gears[1].gear_label, 1);
}

TEST(Arbiter, InfeasibleWhenEvenTheFloorBustsTheBudget) {
  const WorkloadProfile p = toy_profile("J");
  // Cap 330 W minus two parked nodes at 100 W leaves 130 W — below the
  // two jobs' 240 W all-lowest-rung floor.
  const GearArbiter arbiter(watts(330.0), watts(100.0));
  EXPECT_FALSE(arbiter
                   .arbitrate({ArbiterJob{&p, 1, EnergyPolicyTag::kNone},
                               ArbiterJob{&p, 1, EnergyPolicyTag::kNone}},
                              2)
                   .has_value());
}

// --- batch scheduler ---------------------------------------------------------

JobScript spec(std::string id, int tasks,
               EnergyPolicyTag tag = EnergyPolicyTag::kNone,
               double arrival = 0.0, double limit = 0.0) {
  JobScript s;
  s.id = std::move(id);
  s.total_tasks = tasks;
  s.tag = tag;
  s.arrival = seconds(arrival);
  s.wall_clock_limit = seconds(limit);
  return s;
}

/// Every sample of the draw timeline obeys the cap (a tiny epsilon
/// absorbs re-ordered floating-point sums).
void expect_cap_invariant(const BatchResult& r, double cap) {
  const double eps = 1e-9 * (1.0 + cap);
  for (const auto& s : r.power_timeline) {
    EXPECT_LE(s.draw.value(), cap + eps);
  }
  EXPECT_LE(r.peak_power.value(), cap + eps);
  EXPECT_GE(r.min_headroom.value(), -eps);
}

/// The piecewise-constant timeline integral reproduces the energy books
/// exactly: the timeline is the authoritative record of the draw.
void expect_timeline_integral_matches(const BatchResult& r) {
  double integral = 0.0;
  for (std::size_t i = 0; i + 1 < r.power_timeline.size(); ++i) {
    integral += r.power_timeline[i].draw.value() *
                (r.power_timeline[i + 1].at - r.power_timeline[i].at).value();
  }
  EXPECT_NEAR(integral, r.total_energy().value(),
              1e-9 * (1.0 + r.total_energy().value()));
}

TEST(BatchScheduler, CompletionRedistributesPowerToTheSurvivor) {
  const WorkloadProfile p = toy_profile("J");
  // Two 1-node jobs under a 330 W cap (1-node fast 200 W, slow 120 W):
  // only one can run fast.  "a" gets the upshift; when it completes at
  // t=100, arbitration hands its 80 W back to "b", which finishes the
  // remaining third of its work at the fast gear.
  const BatchScheduler sched(Machine{2, watts(330.0), watts(0.0)});
  const std::vector<BatchJob> jobs = {BatchJob{spec("a", 1), &p},
                                      BatchJob{spec("b", 1), &p}};
  const BatchResult r = sched.schedule(jobs);
  EXPECT_DOUBLE_EQ(r.placement("a").end.value(), 100.0);
  EXPECT_EQ(r.placement("a").final_gear_label, 1);
  const BatchPlacement& b = r.placement("b");
  EXPECT_EQ(b.start_gear_label, 2);
  EXPECT_EQ(b.final_gear_label, 1);
  EXPECT_EQ(b.gear_changes, 1);
  EXPECT_NEAR(b.end.value(), 100.0 + 100.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.redistributed_watts.value(), 80.0);
  expect_cap_invariant(r, 330.0);
  expect_timeline_integral_matches(r);

  // The frozen-gear control arm: no redistribution, longer makespan.
  const BatchScheduler frozen(Machine{2, watts(330.0), watts(0.0)},
                              BatchOptions{QueueDiscipline::kFifo, false});
  const BatchResult f = frozen.schedule(jobs);
  EXPECT_DOUBLE_EQ(f.redistributed_watts.value(), 0.0);
  EXPECT_EQ(f.arbitrations, 0u);
  EXPECT_EQ(f.placement("b").gear_changes, 0);
  EXPECT_DOUBLE_EQ(f.makespan.value(), 150.0);
  EXPECT_GT(f.makespan.value(), r.makespan.value());
  expect_cap_invariant(f, 330.0);
}

TEST(BatchScheduler, CrashRedistributesTheVictimsBudget) {
  const WorkloadProfile p = toy_profile("J");
  // Cap 250 W: both 1-node jobs run slow (240 W).  A node dies at t=30
  // and kills "b"; arbitration immediately upshifts the survivor "a"
  // with the freed watts — the crashed job's budget is redistributed,
  // not parked.
  const std::vector<BatchJob> jobs = {BatchJob{spec("a", 1), &p},
                                      BatchJob{spec("b", 1), &p}};
  const std::vector<NodeOutage> outages = {
      NodeOutage{seconds(30.0), 1, seconds(1000.0)}};
  const BatchScheduler sched(Machine{2, watts(250.0), watts(0.0)});
  const BatchResult r = sched.schedule(jobs, outages);
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_DOUBLE_EQ(r.wasted_energy.value(), 120.0 * 30.0);
  const BatchPlacement& a = r.placement("a");
  EXPECT_EQ(a.start_gear_label, 2);
  EXPECT_EQ(a.final_gear_label, 1);  // Upshifted when "b" died.
  EXPECT_EQ(a.gear_changes, 1);
  EXPECT_DOUBLE_EQ(a.end.value(), 110.0);  // 30 + 0.8 * 100.
  EXPECT_DOUBLE_EQ(r.redistributed_watts.value(), 80.0);
  // "b" re-runs once a node frees up: its completed placement is the
  // re-run (ScheduleResult::placement on a killed-then-rerun job).
  EXPECT_DOUBLE_EQ(r.placement("b").start.value(), 110.0);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 210.0);
  expect_cap_invariant(r, 250.0);
  expect_timeline_integral_matches(r);

  // Without arbitration the survivor's gear never moves.
  const BatchScheduler frozen(Machine{2, watts(250.0), watts(0.0)},
                              BatchOptions{QueueDiscipline::kFifo, false});
  const BatchResult f = frozen.schedule(jobs, outages);
  EXPECT_DOUBLE_EQ(f.redistributed_watts.value(), 0.0);
  EXPECT_EQ(f.placement("a").gear_changes, 0);
  expect_cap_invariant(f, 250.0);
}

TEST(BatchScheduler, WallLimitKillsAJobHeldBelowItsProjectedGear) {
  const WorkloadProfile p = toy_profile("J");
  // "b" is admitted because its fastest gear (100 s) beats the 120 s
  // limit, but the time-tagged "a" holds the headroom, so "b" crawls at
  // the slow gear (150 s projected).  "a" completes at 100; "b" upshifts
  // but can no longer finish by its deadline and is killed at 120.
  const BatchScheduler sched(Machine{2, watts(330.0), watts(0.0)});
  const BatchResult r = sched.schedule(
      {BatchJob{spec("a", 1, EnergyPolicyTag::kMinimizeTimeToSolution), &p},
       BatchJob{spec("b", 1, EnergyPolicyTag::kNone, 0.0, 120.0), &p}});
  EXPECT_EQ(r.wall_limit_kills, 1);
  EXPECT_EQ(r.preemptions, 0);
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_EQ(r.placements[0].job_id, "a");
  EXPECT_THROW((void)r.placement("b"), ContractError);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 120.0);
  // 100 s at 120 W plus the post-upshift 20 s at 200 W.
  EXPECT_DOUBLE_EQ(r.wasted_energy.value(), 120.0 * 100.0 + 200.0 * 20.0);
  expect_timeline_integral_matches(r);
}

TEST(BatchScheduler, TwoVictimOutageRequeuesInSubmissionOrder) {
  // Both 2-node jobs die when 3 of 4 nodes go down at t=10; one node
  // stays down much longer, so only one job fits after the first repair
  // — the requeue order is observable: "a" must restart before "b".
  std::vector<ConfigPoint> points;
  points.push_back(
      ConfigPoint{2, 0, 1, seconds(30.0), watts(400.0) * seconds(30.0)});
  const WorkloadProfile p("half", std::move(points));
  const BatchScheduler sched(Machine{4, watts(10000.0), watts(10.0)});
  const BatchResult r = sched.schedule(
      {BatchJob{spec("a", 2), &p}, BatchJob{spec("b", 2), &p}},
      {NodeOutage{seconds(10.0), 2, seconds(10.0)},
       NodeOutage{seconds(10.0), 1, seconds(100.0)}});
  EXPECT_EQ(r.preemptions, 2);
  EXPECT_DOUBLE_EQ(r.placement("a").start.value(), 20.0);
  EXPECT_DOUBLE_EQ(r.placement("b").start.value(), 50.0);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 80.0);
  expect_cap_invariant(r, 10000.0);
  expect_timeline_integral_matches(r);
}

TEST(BatchScheduler, RepairShrinksTheBudgetAndForcesADownshift) {
  const WorkloadProfile p = toy_profile("J");
  // During the outage two nodes are gone entirely, so the 340 W cap lets
  // "a" run fast (320 W total).  The repair brings back 100 W of parked
  // idle draw: the budget shrinks and "a" must downshift — draw lands
  // exactly on the cap, never over it.
  const std::vector<BatchJob> jobs = {BatchJob{spec("a", 1), &p},
                                      BatchJob{spec("b", 1), &p}};
  const BatchScheduler sched(Machine{4, watts(340.0), watts(50.0)});
  const BatchResult r = sched.schedule(
      jobs, {NodeOutage{seconds(0.0), 2, seconds(10.0)}});
  EXPECT_EQ(r.preemptions, 0);
  const BatchPlacement& a = r.placement("a");
  EXPECT_EQ(a.start_gear_label, 1);
  EXPECT_EQ(a.final_gear_label, 2);
  EXPECT_EQ(a.gear_changes, 1);
  EXPECT_DOUBLE_EQ(a.end.value(), 145.0);  // 10 + 0.9 * 150.
  EXPECT_DOUBLE_EQ(r.peak_power.value(), 340.0);  // Exactly at the cap.
  EXPECT_NEAR(r.min_headroom.value(), 0.0, 1e-9);
  expect_cap_invariant(r, 340.0);
  expect_timeline_integral_matches(r);
}

TEST(BatchScheduler, RepairCanEvictWhenEvenTheFloorNoLongerFits) {
  const WorkloadProfile p = toy_profile("J");
  // Cap 300 W: both jobs fit at the slow gear (240 W) while two nodes
  // are down.  The repair's returning idle draw (now 2 parked nodes at
  // 50 W) leaves a 200 W budget — below the 240 W floor — so the
  // younger job is evicted; its node parks too (3 x 50 W, 150 W
  // budget), leaving the survivor at the slow gear but under the cap.
  const std::vector<BatchJob> jobs = {BatchJob{spec("a", 1), &p},
                                      BatchJob{spec("b", 1), &p}};
  const BatchScheduler sched(Machine{4, watts(300.0), watts(50.0)});
  const BatchResult r = sched.schedule(
      jobs, {NodeOutage{seconds(0.0), 2, seconds(10.0)}});
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_DOUBLE_EQ(r.wasted_energy.value(), 120.0 * 10.0);
  const BatchPlacement& a = r.placement("a");
  EXPECT_EQ(a.final_gear_label, 2);
  EXPECT_NEAR(a.end.value(), 150.0, 1e-9);
  // "b" re-runs after "a" completes, still at the slow gear.
  EXPECT_NEAR(r.placement("b").start.value(), a.end.value(), 1e-12);
  EXPECT_EQ(r.placement("b").final_gear_label, 2);
  EXPECT_NEAR(r.makespan.value(), 300.0, 1e-9);
  expect_cap_invariant(r, 300.0);
  expect_timeline_integral_matches(r);
}

TEST(BatchScheduler, MoldableJobRunsNarrowerThanTotalTasks) {
  const WorkloadProfile p = toy_profile("J");
  // total_tasks = 4, but the 4-node floor (480 W slow) busts the 460 W
  // cap; the 2-node shape fits and the arbiter grants it the fast gear.
  const BatchScheduler sched(Machine{4, watts(460.0), watts(10.0)});
  const BatchResult r = sched.schedule({BatchJob{spec("a", 4), &p}});
  const BatchPlacement& a = r.placement("a");
  EXPECT_EQ(a.nodes, 2);
  EXPECT_EQ(a.final_gear_label, 1);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 50.0);
  expect_cap_invariant(r, 460.0);
}

TEST(BatchScheduler, ArrivalsAndGreedyBackfill) {
  const WorkloadProfile wide(
      "wide", {ConfigPoint{4, 0, 1, seconds(25.0), joules(20000.0)}});
  const WorkloadProfile narrow(
      "narrow", {ConfigPoint{1, 0, 1, seconds(10.0), joules(2000.0)}});
  const std::vector<BatchJob> jobs = {BatchJob{spec("w1", 4), &wide},
                                      BatchJob{spec("w2", 4), &wide},
                                      BatchJob{spec("n", 1), &narrow}};
  const Machine five{5, watts(1e6), watts(10.0)};
  const BatchResult fifo =
      BatchScheduler(five, BatchOptions{QueueDiscipline::kFifo, true})
          .schedule(jobs);
  const BatchResult greedy =
      BatchScheduler(five, BatchOptions{QueueDiscipline::kGreedy, true})
          .schedule(jobs);
  EXPECT_GT(fifo.placement("n").start.value(), 0.0);
  EXPECT_DOUBLE_EQ(greedy.placement("n").start.value(), 0.0);
  EXPECT_LE(greedy.makespan.value(), fifo.makespan.value());

  // A late arrival waits for its submission time, not for the queue.
  const WorkloadProfile p = toy_profile("J");
  const BatchScheduler sched(Machine{4, watts(1e6), watts(10.0)});
  const BatchResult late = sched.schedule(
      {BatchJob{spec("early", 1), &p},
       BatchJob{spec("late", 1, EnergyPolicyTag::kNone, 40.0), &p}});
  EXPECT_DOUBLE_EQ(late.placement("early").start.value(), 0.0);
  EXPECT_DOUBLE_EQ(late.placement("late").start.value(), 40.0);
}

TEST(BatchScheduler, OutageBeforeTheFirstPlacementParksAndWaits) {
  const WorkloadProfile wide(
      "wide", {ConfigPoint{4, 0, 1, seconds(25.0), joules(20000.0)}});
  // 3 of 4 nodes are down from t=0: the 4-node job cannot start until
  // the repair at t=50; the lone surviving node parks (and is sampled).
  const BatchScheduler sched(Machine{4, watts(10000.0), watts(10.0)});
  const BatchResult r =
      sched.schedule({BatchJob{spec("a", 4), &wide}},
                     {NodeOutage{seconds(0.0), 3, seconds(50.0)}});
  EXPECT_EQ(r.preemptions, 0);
  ASSERT_FALSE(r.power_timeline.empty());
  EXPECT_DOUBLE_EQ(r.power_timeline.front().at.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.power_timeline.front().draw.value(), 10.0);
  EXPECT_DOUBLE_EQ(r.placement("a").start.value(), 50.0);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 75.0);
  expect_timeline_integral_matches(r);
}

TEST(BatchScheduler, RepairAfterTheQueueDrainsDoesNotExtendTheSchedule) {
  const WorkloadProfile p = toy_profile("J");
  // The outage only takes parked nodes (no kill); its repair lands long
  // after the last completion and must not stretch the makespan.
  const BatchScheduler sched(Machine{4, watts(1e6), watts(10.0)});
  const BatchResult r =
      sched.schedule({BatchJob{spec("a", 1), &p}},
                     {NodeOutage{seconds(10.0), 2, seconds(200.0)}});
  EXPECT_EQ(r.preemptions, 0);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 100.0);
  EXPECT_DOUBLE_EQ(r.power_timeline.back().at.value(), 100.0);
  // The outage is still visible mid-run: two fewer parked nodes.
  bool saw_outage_sample = false;
  for (const auto& s : r.power_timeline) {
    if (s.at.value() == 10.0) {
      EXPECT_DOUBLE_EQ(s.draw.value(), 200.0 + 1 * 10.0);
      saw_outage_sample = true;
    }
  }
  EXPECT_TRUE(saw_outage_sample);
  expect_timeline_integral_matches(r);
}

TEST(BatchScheduler, EdgeCaseContracts) {
  const WorkloadProfile p = toy_profile("J");
  // Cap below the machine's own parked draw: rejected at construction.
  EXPECT_THROW(BatchScheduler(Machine{10, watts(100.0), watts(50.0)}),
               ContractError);
  // A job no configuration can fit under the cap: rejected up front.
  const BatchScheduler tight(Machine{4, watts(125.0), watts(10.0)});
  EXPECT_THROW((void)tight.schedule({BatchJob{spec("a", 4), &p}}),
               ContractError);
  // A wall limit below even the fastest configuration: certain death,
  // rejected up front too.
  const BatchScheduler roomy(Machine{4, watts(10000.0), watts(10.0)});
  EXPECT_THROW(
      (void)roomy.schedule({BatchJob{
          spec("a", 4, EnergyPolicyTag::kNone, 0.0, 20.0), &p}}),
      ContractError);
  // An unrepaired outage that strands the queue forever.
  EXPECT_THROW(
      (void)roomy.schedule({BatchJob{spec("a", 4), &p}},
                           {NodeOutage{seconds(10.0), 4}}),
      ContractError);
  // Duplicate ids and missing profiles are submission bugs.
  EXPECT_THROW((void)roomy.schedule(
                   {BatchJob{spec("a", 1), &p}, BatchJob{spec("a", 1), &p}}),
               ContractError);
  EXPECT_THROW((void)roomy.schedule({BatchJob{spec("a", 1), nullptr}}),
               ContractError);
  // placement() on a job that never completed.
  const BatchResult ok = roomy.schedule({BatchJob{spec("a", 1), &p}});
  EXPECT_THROW((void)ok.placement("ghost"), ContractError);
}

TEST(BatchScheduler, RerunsAreByteIdentical) {
  const WorkloadProfile cg = toy_profile("CG");
  const WorkloadProfile ep = toy_profile("EP", 80.0, 150.0);
  const std::vector<BatchJob> jobs = {
      BatchJob{spec("a", 4, EnergyPolicyTag::kMinimizeTimeToSolution), &cg},
      BatchJob{spec("b", 2, EnergyPolicyTag::kMinimizeEnergyToSolution), &ep},
      BatchJob{spec("c", 1, EnergyPolicyTag::kNone, 30.0), &cg}};
  const std::vector<NodeOutage> outages = {
      NodeOutage{seconds(40.0), 1, seconds(30.0)}};
  const BatchScheduler sched(Machine{4, watts(700.0), watts(10.0)});
  const BatchResult r1 = sched.schedule(jobs, outages);
  const BatchResult r2 = sched.schedule(jobs, outages);
  EXPECT_EQ(r1.makespan.value(), r2.makespan.value());
  EXPECT_EQ(r1.job_energy.value(), r2.job_energy.value());
  EXPECT_EQ(r1.idle_energy.value(), r2.idle_energy.value());
  EXPECT_EQ(r1.wasted_energy.value(), r2.wasted_energy.value());
  EXPECT_EQ(r1.peak_power.value(), r2.peak_power.value());
  EXPECT_EQ(r1.min_headroom.value(), r2.min_headroom.value());
  EXPECT_EQ(r1.redistributed_watts.value(), r2.redistributed_watts.value());
  EXPECT_EQ(r1.arbitrations, r2.arbitrations);
  ASSERT_EQ(r1.placements.size(), r2.placements.size());
  for (std::size_t i = 0; i < r1.placements.size(); ++i) {
    EXPECT_EQ(r1.placements[i].job_id, r2.placements[i].job_id);
    EXPECT_EQ(r1.placements[i].start.value(), r2.placements[i].start.value());
    EXPECT_EQ(r1.placements[i].end.value(), r2.placements[i].end.value());
    EXPECT_EQ(r1.placements[i].final_gear_label,
              r2.placements[i].final_gear_label);
    EXPECT_EQ(r1.placements[i].energy.value(),
              r2.placements[i].energy.value());
  }
  ASSERT_EQ(r1.power_timeline.size(), r2.power_timeline.size());
  for (std::size_t i = 0; i < r1.power_timeline.size(); ++i) {
    EXPECT_EQ(r1.power_timeline[i].at.value(),
              r2.power_timeline[i].at.value());
    EXPECT_EQ(r1.power_timeline[i].draw.value(),
              r2.power_timeline[i].draw.value());
  }
  expect_cap_invariant(r1, 700.0);
  expect_timeline_integral_matches(r1);
}

TEST(BatchScheduler, MetricsMatchTheResult) {
  const WorkloadProfile p = toy_profile("J");
  obs::MetricsRegistry reg;
  const BatchScheduler sched(Machine{2, watts(250.0), watts(0.0)});
  const BatchResult r = sched.schedule(
      {BatchJob{spec("a", 1), &p}, BatchJob{spec("b", 1), &p}},
      {NodeOutage{seconds(30.0), 1, seconds(1000.0)}}, &reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.metrics.at("sched.arbitrations").count, r.arbitrations);
  EXPECT_EQ(snap.metrics.at("sched.preemptions").count,
            static_cast<std::uint64_t>(r.preemptions));
  EXPECT_DOUBLE_EQ(snap.metrics.at("sched.cap.headroom").value,
                   r.min_headroom.value());
  EXPECT_DOUBLE_EQ(snap.metrics.at("sched.redistributed_watts").value,
                   r.redistributed_watts.value());
  EXPECT_GT(r.redistributed_watts.value(), 0.0);
}

TEST(BatchScheduler, EndToEndWithMeasuredProfilesUnderOutage) {
  // Full pipeline: cached profile measurement, a mixed-tag queue, an
  // outage mid-run, and every invariant the scheduler promises.
  exec::ResultCache cache;
  exec::SweepOptions opts;
  opts.cache = &cache;
  const exec::SweepRunner runner(cluster::athlon_cluster(), opts);
  const auto cg = workloads::make_workload("CG");
  const auto ep = workloads::make_workload("EP");
  const WorkloadProfile cg_prof = WorkloadProfile::measure(runner, *cg, 8);
  const WorkloadProfile ep_prof = WorkloadProfile::measure(runner, *ep, 8);
  const Machine rack{10, watts(1200.0), watts(85.0)};
  const BatchScheduler sched(rack);
  const BatchResult r = sched.schedule(
      {BatchJob{spec("cg", 8, EnergyPolicyTag::kMinimizeTimeToSolution),
                &cg_prof},
       BatchJob{spec("ep", 8, EnergyPolicyTag::kMinimizeEnergyToSolution),
                &ep_prof},
       BatchJob{spec("cg2", 4), &cg_prof}},
      {NodeOutage{seconds(1.0), 2, seconds(5.0)}});
  EXPECT_EQ(r.placements.size(), 3u);
  EXPECT_GT(r.makespan.value(), 0.0);
  expect_cap_invariant(r, 1200.0);
  expect_timeline_integral_matches(r);
}

}  // namespace
}  // namespace gearsim::sched
