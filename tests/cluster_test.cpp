// Tests for the cluster harness: presets, the experiment runner's
// accounting identities, determinism, and gear-sweep structure.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/result_io.hpp"
#include "exec/sweep_runner.hpp"
#include "faults/fault_plan.hpp"
#include "model/gear_data.hpp"
#include "net/topology.hpp"
#include "util/statistics.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/registry.hpp"

namespace gearsim::cluster {
namespace {

TEST(Presets, AthlonMatchesThePaperMachine) {
  const ClusterConfig c = athlon_cluster();
  EXPECT_EQ(c.max_nodes, 10);
  EXPECT_EQ(c.gears.size(), 6u);
  EXPECT_DOUBLE_EQ(c.gears.fastest().frequency.value(), 2e9);
}

TEST(Presets, SunClusterIsFixedGear32Nodes) {
  const ClusterConfig c = sun_cluster();
  EXPECT_EQ(c.max_nodes, 32);
  EXPECT_EQ(c.gears.size(), 1u);
}

TEST(Presets, XeonClusterHasASharedNoisyNetwork) {
  EXPECT_GT(xeon_cluster().network.latency_jitter, 0.0);
}

TEST(Runner, RejectsInvalidRuns) {
  ExperimentRunner runner(athlon_cluster());
  const workloads::Jacobi jacobi;
  EXPECT_THROW((void)runner.run(jacobi, 0, 0), ContractError);
  EXPECT_THROW((void)runner.run(jacobi, 11, 0), ContractError);   // > max.
  EXPECT_THROW((void)runner.run(jacobi, 2, 6), ContractError);    // Bad gear.
  const auto bt = workloads::make_workload("BT");
  EXPECT_THROW((void)runner.run(*bt, 8, 0), ContractError);       // Not square.
}

TEST(Runner, EnergyIdentityHolds) {
  // total == active + idle; total == sum over nodes; mean powers weighted
  // by the respective times reproduce the energies.
  ExperimentRunner runner(athlon_cluster());
  const RunResult r = runner.run(workloads::Jacobi(), 4, 2);
  EXPECT_NEAR(r.energy.value(),
              (r.active_energy + r.idle_energy).value(),
              1e-6 * r.energy.value());
  Joules per_node{};
  Seconds active_time{};
  Seconds idle_time{};
  for (const auto& ne : r.node_energy) {
    per_node += ne.total;
    active_time += ne.active_time;
    idle_time += ne.idle_time;
  }
  EXPECT_NEAR(per_node.value(), r.energy.value(), 1e-6 * r.energy.value());
  EXPECT_NEAR((r.mean_active_power * active_time).value(),
              r.active_energy.value(), 1e-6 * r.active_energy.value());
  EXPECT_NEAR((r.mean_idle_power * idle_time).value(),
              r.idle_energy.value(), 1e-6 * r.idle_energy.value());
}

TEST(Runner, WallClockIdentities) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult r = runner.run(workloads::Jacobi(), 4, 0);
  // Every node's active+idle time equals the wall clock.
  for (const auto& ne : r.node_energy) {
    EXPECT_NEAR(ne.total_time().value(), r.wall.value(),
                1e-9 + 1e-9 * r.wall.value());
  }
  // Breakdown wall equals run wall; active_max + idle_derived == wall.
  EXPECT_DOUBLE_EQ(r.breakdown.wall.value(), r.wall.value());
  EXPECT_NEAR((r.breakdown.active_max + r.breakdown.idle_derived).value(),
              r.wall.value(), 1e-9);
}

TEST(Runner, RunsAreDeterministic) {
  ExperimentRunner a(athlon_cluster());
  ExperimentRunner b(athlon_cluster());
  const RunResult ra = a.run(workloads::Jacobi(), 6, 3);
  const RunResult rb = b.run(workloads::Jacobi(), 6, 3);
  EXPECT_DOUBLE_EQ(ra.wall.value(), rb.wall.value());
  EXPECT_DOUBLE_EQ(ra.energy.value(), rb.energy.value());
  EXPECT_EQ(ra.messages, rb.messages);
}

TEST(Runner, SeedChangesJitterOnly) {
  ClusterConfig config = athlon_cluster();
  ExperimentRunner a(config);
  config.seed = 777;
  ExperimentRunner b(config);
  const RunResult ra = a.run(workloads::Jacobi(), 4, 0);
  const RunResult rb = b.run(workloads::Jacobi(), 4, 0);
  EXPECT_NE(ra.wall.value(), rb.wall.value());
  EXPECT_NEAR(ra.wall / rb.wall, 1.0, 0.05);  // Jitter is percent-level.
  EXPECT_EQ(ra.messages, rb.messages);
}

TEST(Runner, ZeroImbalanceMakesRanksSymmetric) {
  ClusterConfig config = athlon_cluster();
  config.load_imbalance = 0.0;
  ExperimentRunner runner(config);
  const RunResult r = runner.run(*workloads::make_workload("EP"), 4, 0);
  // Compute is symmetric; tiny spread remains from tree positions in the
  // final allreduce.
  EXPECT_NEAR(r.breakdown.active_mean / r.breakdown.active_max, 1.0, 1e-4);
}

TEST(Runner, GearSweepCoversAllGearsFastestFirst) {
  ExperimentRunner runner(athlon_cluster());
  const auto runs = runner.gear_sweep(workloads::Jacobi(), 2);
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t g = 0; g < runs.size(); ++g) {
    EXPECT_EQ(runs[g].gear_index, g);
    EXPECT_EQ(runs[g].gear_label, static_cast<int>(g) + 1);
  }
  // Paper invariant: the fastest gear takes the least time.
  for (std::size_t g = 1; g < runs.size(); ++g) {
    EXPECT_GE(runs[g].wall.value(), runs[0].wall.value());
  }
}

TEST(Runner, SlowerGearReducesMeanActivePower) {
  ExperimentRunner runner(athlon_cluster());
  const auto runs = runner.gear_sweep(workloads::Jacobi(), 1);
  for (std::size_t g = 1; g < runs.size(); ++g) {
    EXPECT_LT(runs[g].mean_active_power.value(),
              runs[g - 1].mean_active_power.value());
  }
}

TEST(Runner, SpeedupHelper) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult r1 = runner.run(workloads::Jacobi(), 1, 0);
  const RunResult r4 = runner.run(workloads::Jacobi(), 4, 0);
  EXPECT_NEAR(speedup(r1, r4), r1.wall / r4.wall, 1e-12);
}

TEST(GearData, MeasurementProtocolProducesMonotoneSg) {
  ExperimentRunner runner(athlon_cluster());
  const model::GearData data =
      model::measure_gear_data(runner, *workloads::make_workload("CG"));
  ASSERT_EQ(data.size(), 6u);
  EXPECT_DOUBLE_EQ(data.at(0).slowdown, 1.0);
  for (std::size_t g = 1; g < 6; ++g) {
    EXPECT_GE(data.at(g).slowdown, data.at(g - 1).slowdown);
    EXPECT_LT(data.at(g).active_power.value(),
              data.at(g - 1).active_power.value());
    EXPECT_LT(data.at(g).idle_power.value(), data.at(g).active_power.value());
  }
  EXPECT_THROW((void)data.at(6), ContractError);
}

TEST(GearData, SgBoundedByCycleRatio) {
  ExperimentRunner runner(athlon_cluster());
  for (const char* name : {"EP", "CG", "LU"}) {
    const model::GearData data =
        model::measure_gear_data(runner, *workloads::make_workload(name));
    for (std::size_t g = 0; g < 6; ++g) {
      EXPECT_LE(data.at(g).slowdown,
                runner.config().gears.cycle_time_ratio(g) + 1e-9)
          << name << " gear " << g;
    }
  }
}

TEST(Runner, SunClusterRunsAllNasAt32) {
  ExperimentRunner runner(sun_cluster());
  const auto ep = workloads::make_workload("EP");
  const RunResult r = runner.run(*ep, 32, 0);
  EXPECT_GT(r.wall.value(), 0.0);
  EXPECT_EQ(r.node_energy.size(), 32u);
}

TEST(Runner, XeonClusterIsNoisyAcrossSeeds) {
  // The paper discarded this machine: a shared network makes timings
  // unreliable.  Verify the preset actually produces that behavior.
  ClusterConfig config = xeon_cluster();
  ExperimentRunner a(config);
  config.network.jitter_seed = 1234;
  ExperimentRunner b(config);
  const auto cg = workloads::make_workload("CG");
  const Seconds ta = a.run(*cg, 8, 0).wall;
  const Seconds tb = b.run(*cg, 8, 0).wall;
  EXPECT_NE(ta.value(), tb.value());
}

/// Repetition r of a point, spelled out: the same point under
/// (seed + r, jitter_seed + r).
RunResult shifted_seed_run(const ClusterConfig& base, const Workload& w,
                           int nodes, std::size_t gear, int rep) {
  ClusterConfig config = base;
  config.seed = base.seed + static_cast<std::uint64_t>(rep);
  config.network.jitter_seed =
      base.network.jitter_seed + static_cast<std::uint64_t>(rep);
  return ExperimentRunner(config).run(w, nodes, gear);
}

/// `count` repetitions of one point through the sweep executor on `jobs`
/// workers, each checked bit for bit against its shifted-seed run.
std::vector<RunResult> repetitions(const ClusterConfig& config,
                                   const Workload& w, int nodes,
                                   std::size_t gear, int count,
                                   int jobs = 0) {
  std::vector<exec::SweepPoint> points;
  for (int r = 0; r < count; ++r) {
    points.push_back(exec::SweepPoint{&w, nodes, gear, r});
  }
  exec::SweepOptions options;
  options.jobs = jobs;
  std::vector<RunResult> runs = exec::SweepRunner(config, options).run(points);
  for (int r = 0; r < count; ++r) {
    EXPECT_EQ(exec::to_json(runs[static_cast<std::size_t>(r)]),
              exec::to_json(shifted_seed_run(config, w, nodes, gear, r)))
        << "rep " << r;
  }
  return runs;
}

RunningStats wall_stats(const std::vector<RunResult>& runs) {
  RunningStats s;
  for (const RunResult& r : runs) s.add(r.wall.value());
  return s;
}

TEST(Runner, RepeatedRunsQuantifyJitter) {
  const ClusterConfig config = athlon_cluster();
  const auto mg = workloads::make_workload("MG");
  const std::vector<RunResult> runs = repetitions(config, *mg, 4, 0, 5);
  ASSERT_EQ(runs.size(), 5u);
  const RunningStats time_s = wall_stats(runs);
  // Different seeds produce different (but close) times.
  EXPECT_GT(time_s.stddev(), 0.0);
  EXPECT_LT(time_s.stddev() / time_s.mean(), 0.03);  // ~1% imbalance.
  EXPECT_NEAR(time_s.mean(), runs[0].wall.value(),
              0.05 * runs[0].wall.value());
}

TEST(Runner, RepeatedRunsWithZeroImbalanceAreIdenticalModuloNetwork) {
  ClusterConfig config = athlon_cluster();
  config.load_imbalance = 0.0;
  const auto ep = workloads::make_workload("EP");
  const RunningStats time_s = wall_stats(repetitions(config, *ep, 2, 0, 3));
  // EP has (almost) no network sensitivity; the spread collapses.
  EXPECT_LT(time_s.stddev() / time_s.mean(), 1e-6);
}

TEST(Runner, ParallelSweepsMatchSerialBitForBit) {
  // gear_sweep and repeated points with a worker pool must reproduce the
  // serial results exactly — the executor only moves points, it never
  // changes their seeds.
  ExperimentRunner runner(athlon_cluster());
  const workloads::Jacobi jacobi;
  const auto serial = runner.gear_sweep(jacobi, 4, 1);
  const auto wide = runner.gear_sweep(jacobi, 4, 8);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t g = 0; g < serial.size(); ++g) {
    EXPECT_EQ(serial[g].wall.value(), wide[g].wall.value());
    EXPECT_EQ(serial[g].energy.value(), wide[g].energy.value());
    EXPECT_EQ(serial[g].mpi_calls, wide[g].mpi_calls);
  }
  // Both worker counts are checked against the shifted-seed runs inside
  // repetitions(), so they also agree with each other.
  (void)repetitions(athlon_cluster(), jacobi, 2, 0, 4, 1);
  (void)repetitions(athlon_cluster(), jacobi, 2, 0, 4, 8);
}

TEST(Runner, UniformRunReportsDegenerateGearRange) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult r = runner.run(workloads::Jacobi(), 2, 3);
  EXPECT_FALSE(r.policy_run);
  EXPECT_EQ(r.gear_index, 3u);
  EXPECT_EQ(r.gear_min_index, 3u);
  EXPECT_EQ(r.gear_max_index, 3u);
}

TEST(Runner, PolicyRunReportsModalAndRangeNotRankZero) {
  // Bugfix regression: gear_index used to echo policy->compute_gear(0),
  // mislabeling mixed-gear runs with whatever rank 0 happened to use.
  // With ranks at gears {5, 1, 1, 1} the honest summary is modal gear 1,
  // range [1, 5] — and rank 0's gear 5 must NOT be reported as "the"
  // gear.
  ExperimentRunner runner(athlon_cluster());
  PerRankGear policy({5, 1, 1, 1});
  RunOptions options;
  options.policy = &policy;
  const RunResult r = runner.run(workloads::Jacobi(), 4, options);
  EXPECT_TRUE(r.policy_run);
  EXPECT_EQ(r.gear_index, 1u);      // Modal, not rank 0's 5.
  EXPECT_EQ(r.gear_min_index, 1u);  // Fastest rank.
  EXPECT_EQ(r.gear_max_index, 5u);  // Slowest rank.
  EXPECT_EQ(r.gear_label, 2);       // Label of the modal gear.
}

TEST(Runner, PolicyModalTieBreaksTowardFasterGear) {
  ExperimentRunner runner(athlon_cluster());
  PerRankGear policy({4, 4, 2, 2});
  RunOptions options;
  options.policy = &policy;
  const RunResult r = runner.run(workloads::Jacobi(), 4, options);
  EXPECT_EQ(r.gear_index, 2u);  // 2 and 4 tie; the faster (lower) wins.
  EXPECT_EQ(r.gear_min_index, 2u);
  EXPECT_EQ(r.gear_max_index, 4u);
}

// --- rerun equality across fault plans, topologies and send modes --------

/// Two runs of the same inputs must agree byte for byte on every cached
/// field (exec::to_json covers all of them, the order hash included).
void expect_rerun_identical(const ExperimentRunner& runner,
                            const Workload& workload, int nodes,
                            const RunOptions& options,
                            const std::string& label) {
  SCOPED_TRACE(label);
  const RunResult first = runner.run(workload, nodes, options);
  const RunResult second = runner.run(workload, nodes, options);
  EXPECT_NE(first.event_order_hash, 0u);
  EXPECT_EQ(exec::to_json(first), exec::to_json(second));
}

TEST(Runner, FaultPlanMatrixRerunsAreIdentical) {
  // Workloads x fault plans: fault-free, deterministic straggler
  // windows, a compose-mode crash + checkpointing plan, an abort-mode
  // crash and a lossy-link plan, whose loss draws are keyed by transfer
  // identity.
  const ExperimentRunner runner(athlon_cluster());

  faults::FaultPlan stragglers;
  stragglers.straggle(0, seconds(0.0), seconds(1e9), 4)
      .straggle(2, seconds(1.0), seconds(3.0), 5);

  faults::FaultPlan compose;
  faults::CheckpointConfig ckpt;
  ckpt.interval = seconds(2.0);
  compose.with_checkpointing(ckpt).crash(1, seconds(3.0));

  faults::FaultPlan abort;
  abort.crash(1, seconds(0.5));

  faults::FaultPlan links(11);
  net::LinkFaultWindow lossy;
  lossy.from = seconds(0.0);
  lossy.until = seconds(5.0);
  lossy.loss_probability = 0.3;
  links.degrade_link(lossy);

  const std::vector<std::pair<std::string, const faults::FaultPlan*>> plans =
      {{"faults=none", nullptr},
       {"faults=stragglers", &stragglers},
       {"faults=compose", &compose},
       {"faults=abort", &abort},
       {"faults=links", &links}};

  for (const char* const name : {"Jacobi", "CG", "EP", "LU", "BT"}) {
    const auto workload = workloads::make_workload(name);
    for (const auto& [plan_label, plan] : plans) {
      RunOptions options;
      options.gear_index = 2;
      options.faults = plan;
      expect_rerun_identical(runner, *workload, 4, options,
                             std::string(name) + " " + plan_label);
    }
  }
  // The lossy plan really exercises the retransmit path.
  RunOptions options;
  options.faults = &links;
  EXPECT_GT(runner.run(workloads::Jacobi(), 4, options).retransmissions, 0u);
}

TEST(Runner, RoutedTopologyRerunsAreIdentical) {
  // Fair-share contention is a pure function of the transfer call
  // sequence, so reruns drive the link schedules to the same state.
  const std::vector<std::string> specs = {"fat-tree:2,2:1,1:1,1",
                                          "torus:4x4",
                                          "fat-tree:2,2:1,1:1,1:trunk_bw=2e6"};
  for (const std::string& spec : specs) {
    ClusterConfig config = athlon_cluster();
    install_topology(&config, net::parse_topology(spec));
    const ExperimentRunner runner(config);
    for (const char* const name : {"Jacobi", "CG"}) {
      RunOptions options;
      options.gear_index = 2;
      expect_rerun_identical(runner, *workloads::make_workload(name), 4,
                             options, spec + " " + name);
    }
  }
}

TEST(Runner, RendezvousRerunsAreIdentical) {
  // Every message above a zero eager threshold goes rendezvous: the
  // receiver's match wakes the blocked sender.
  ClusterConfig config = athlon_cluster();
  config.mpi.eager_threshold = 0;
  const ExperimentRunner runner(config);
  expect_rerun_identical(runner, workloads::Jacobi(), 4, RunOptions{},
                         "Jacobi, all rendezvous");
}

TEST(Runner, EngineThreadsAcceptsOnlyZeroOrOne) {
  const ExperimentRunner runner(athlon_cluster());
  const workloads::Jacobi jacobi;
  RunOptions options;
  options.engine_threads = 0;
  const RunResult unset = runner.run(jacobi, 4, options);
  options.engine_threads = 1;
  EXPECT_EQ(exec::to_json(unset), exec::to_json(runner.run(jacobi, 4, options)));
  for (const int threads : {2, -1}) {
    options.engine_threads = threads;
    EXPECT_THROW(runner.run(jacobi, 4, options), ContractError) << threads;
  }
}

TEST(Runner, SpeedupRejectsDegenerateDenominator) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult good = runner.run(workloads::Jacobi(), 1, 0);
  RunResult empty;  // Default-constructed: wall == 0.
  EXPECT_THROW((void)speedup(good, empty), ContractError);
  EXPECT_NO_THROW((void)speedup(empty, good));  // 0/positive is just 0.
}

}  // namespace
}  // namespace gearsim::cluster
