#include "cluster/experiment.hpp"

#include <algorithm>
#include <memory>

#include "cluster/dvfs.hpp"
#include "faults/injector.hpp"
#include "faults/restart_model.hpp"
#include "mpi/world.hpp"
#include "power/energy_meter.hpp"
#include "trace/timeline.hpp"
#include "sim/engine.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"

namespace gearsim::cluster {

namespace {

/// MPI observer that parks a rank at its policy's comm gear on entry to a
/// blocking call and restores the compute gear on exit — the runnable
/// form of the paper's "automatically reduce the energy gear" future
/// work.  Registered after the tracer, so traced call durations include
/// the downshift transition (as they would with a real DVFS-aware MPI).
class DvfsDriver final : public mpi::CallObserver {
 public:
  DvfsDriver(GearPolicy& policy, std::vector<RankContext*>& contexts)
      : policy_(policy),
        contexts_(contexts),
        pending_(contexts.size()) {}

  void on_enter(mpi::Rank rank, mpi::CallType type, Seconds now, Bytes bytes,
                mpi::Rank) override {
    if (!mpi::is_blocking_point(type)) return;
    if (RankContext* ctx = contexts_[rank]) {
      // Feed the policy *before* querying the comm gear, so adaptive
      // controllers can decide per call whether (and how far) to park.
      pending_[static_cast<std::size_t>(rank)] = {now, bytes};
      policy_.on_blocking_enter(rank, type, bytes, now);
      ctx->set_gear(policy_.comm_gear(rank));
    }
  }

  void on_exit(mpi::Rank rank, mpi::CallType type, Seconds now) override {
    if (!mpi::is_blocking_point(type)) return;
    if (RankContext* ctx = contexts_[rank]) {
      // Measured wait: everything between enter and exit, including the
      // downshift transition — exactly what a DVFS-aware MPI would see.
      const Pending& p = pending_[static_cast<std::size_t>(rank)];
      policy_.on_blocking_exit(rank, type, p.bytes, now, now - p.enter);
      ctx->set_gear(policy_.compute_gear(rank));
    }
  }

 private:
  struct Pending {
    Seconds enter{};
    Bytes bytes = 0;
  };

  GearPolicy& policy_;
  std::vector<RankContext*>& contexts_;
  std::vector<Pending> pending_;
};

}  // namespace

const char* to_string(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kCompleted: return "completed";
    case RunOutcome::kCompletedAfterRestart: return "completed-after-restart";
    case RunOutcome::kFailed: return "failed";
  }
  return "?";
}

ExperimentRunner::ExperimentRunner(ClusterConfig config)
    : config_(std::move(config)) {
  GEARSIM_REQUIRE(config_.max_nodes >= 1, "cluster needs at least one node");
}

RunResult ExperimentRunner::run(const Workload& workload, int nodes,
                                std::size_t gear_index) const {
  RunOptions options;
  options.gear_index = gear_index;
  return run(workload, nodes, options);
}

RunResult ExperimentRunner::run(const Workload& workload, int nodes,
                                const RunOptions& options) const {
  GearPolicy* policy = options.policy;
  GEARSIM_REQUIRE(nodes >= 1 && nodes <= config_.max_nodes,
                  "node count outside the cluster");
  GEARSIM_REQUIRE(options.engine_threads == 0 || options.engine_threads == 1,
                  "engine_threads must be 0 or 1: the parallel engine was "
                  "removed, runs are serial");
  // Deterministic fault injection for the supervision/strict-mode tests:
  // lets a test fail run N through the full stack without a bespoke
  // throwing workload.  One relaxed atomic load when disarmed.
  if (util::failpoint("cluster.run.throw")) {
    throw SimulationError("failpoint cluster.run.throw fired (" +
                          workload.name() + ", " + std::to_string(nodes) +
                          " nodes)");
  }
  // Reset any per-run controller state before the first gear query; for
  // static policies this is a no-op (or a rank-count check).  Metrics are
  // attached first so begin_run can register the policy's counters.
  if (policy != nullptr) {
    policy->set_metrics(options.metrics);
    policy->begin_run(nodes);
  }
  const std::size_t gear_index =
      policy != nullptr ? policy->compute_gear(0) : options.gear_index;
  GEARSIM_REQUIRE(gear_index < config_.gears.size(), "gear out of range");
  GEARSIM_REQUIRE(workload.supports(nodes),
                  "workload does not support this node count");

  const cpu::CpuModel cpu_model(config_.cpu, config_.gears);
  const cpu::PowerModel power_model(config_.power, config_.gears);

  sim::Engine engine;
  net::Network network(config_.network, static_cast<std::size_t>(nodes));
  engine.set_metrics(options.metrics);
  network.set_metrics(options.metrics);
  mpi::World world(engine, network, nodes, config_.mpi);
  trace::Tracer tracer(static_cast<std::size_t>(nodes));
  world.add_observer(&tracer);
  power::EnergyMeter meter(static_cast<std::size_t>(nodes));

  // Fault layer.  An absent or empty plan installs nothing at all, so the
  // run stays bit-identical to a fault-free one.  With a checkpoint
  // policy the run executes "solid" (environment faults only) while
  // recording exact power profiles, and crashes are composed analytically
  // afterwards (compose mode); without one, a crash aborts the engine.
  const faults::FaultPlan* plan = options.faults;
  const bool has_faults = plan != nullptr && !plan->empty();
  const bool compose_mode = has_faults && plan->checkpointing().has_value();
  trace::FaultLog fault_log;
  std::unique_ptr<faults::FaultInjector> injector;
  if (has_faults) {
    injector = std::make_unique<faults::FaultInjector>(
        *plan, network, static_cast<std::size_t>(nodes), config_.gears.size(),
        &fault_log);
    if (compose_mode) meter.enable_profile_recording();
  }

  Rng run_rng(config_.seed);
  std::vector<Seconds> finish(static_cast<std::size_t>(nodes));
  std::vector<std::uint64_t> switches(static_cast<std::size_t>(nodes), 0);
  std::vector<std::vector<Seconds>> residency(static_cast<std::size_t>(nodes));
  std::vector<RankContext*> contexts(static_cast<std::size_t>(nodes), nullptr);
  std::unique_ptr<DvfsDriver> driver;
  if (policy != nullptr && policy->shifts_during_comm()) {
    driver = std::make_unique<DvfsDriver>(*policy, contexts);
    world.add_observer(driver.get());
  }

  // Optional physical measurement path: one sampling multimeter per node,
  // as in the paper's rig.  The meters run until the last rank finishes
  // (a periodic sampler would otherwise keep the event queue alive
  // forever), so the final rank stops them.
  std::vector<std::unique_ptr<power::Multimeter>> multimeters;
  int ranks_remaining = nodes;
  if (config_.sample_power) {
    for (int r = 0; r < nodes; ++r) {
      const auto node = static_cast<std::size_t>(r);
      power::MultimeterConfig mm = config_.multimeter;
      mm.noise_seed += node;  // Independent sensor noise per meter.
      multimeters.push_back(std::make_unique<power::Multimeter>(
          engine, mm, [&meter, node] { return meter.instantaneous(node); }));
      if (injector != nullptr) {
        auto windows = injector->dropouts_for(node);
        if (!windows.empty()) {
          multimeters.back()->set_dropouts(std::move(windows));
        }
      }
    }
  }
  const auto on_rank_finished = [&] {
    if (--ranks_remaining == 0) {
      for (auto& mm : multimeters) mm->stop();
    }
  };

  // Spawn one process per rank.  Each starts idle, runs the workload body,
  // and records its finish time.  Every rank starts at t=0, so the start
  // events are collected into one batch and submitted with a single queue
  // operation; batch order matches loop order, keeping rank start order
  // (and thus every downstream seq) identical to per-rank scheduling.
  sim::EventBatch start_batch;
  start_batch.reserve(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) {
    const auto node = static_cast<std::size_t>(r);
    const std::size_t rank_gear =
        policy != nullptr ? policy->compute_gear(r) : gear_index;
    GEARSIM_REQUIRE(rank_gear < config_.gears.size(),
                    "policy gear out of range");
    // Per-rank deterministic load-imbalance factor in [1-x, 1+x].
    Rng rank_rng = run_rng.fork(static_cast<std::uint64_t>(r));
    const double penalty =
        1.0 + config_.load_imbalance * (2.0 * rank_rng.uniform() - 1.0);
    sim::Process& proc = engine.spawn(
        "rank" + std::to_string(r),
        [&, r, node, rank_gear, penalty, rank_rng](sim::Process& p) {
          meter.set_power(node, p.now(), power_model.idle_power(rank_gear),
                          power::NodeState::kIdle);
          if (config_.sample_power) multimeters[node]->start();
          RankContext ctx(mpi::Comm(world, r), cpu_model, power_model, meter,
                          rank_gear, penalty, rank_rng,
                          config_.gear_switch_latency);
          if (injector != nullptr && injector->throttles()) {
            ctx.set_gear_throttle(injector.get());
          }
          contexts[node] = &ctx;
          workload.run(ctx);
          contexts[node] = nullptr;
          finish[node] = p.now();
          switches[node] = ctx.gear_switches();
          ctx.finalize_residency();
          residency[node] = ctx.gear_residency();
          on_rank_finished();
        },
        start_batch);
    world.bind_rank(r, proc);
  }
  engine.schedule_batch(start_batch);

  // Crash events abort the engine only when no checkpoint policy exists
  // to absorb them; in compose mode the solid run must complete.
  if (has_faults && !compose_mode && !plan->crashes().empty()) {
    injector->arm_crashes(engine,
                          [&ranks_remaining] { return ranks_remaining > 0; });
  }

  bool aborted = false;
  faults::CrashEvent fatal{};
  try {
    engine.run();
  } catch (const faults::NodeFailure& failure) {
    aborted = true;
    fatal = faults::CrashEvent{failure.node, failure.at};
    // The run is over at the crash instant.  Unwind the surviving rank
    // fibers now, while the world/network/meter they reference are still
    // alive, then settle the books with whatever partial progress exists.
    engine.terminate_processes();
    for (auto& mm : multimeters) {
      if (mm->running()) mm->stop();
    }
  }

  const Seconds wall =
      aborted ? fatal.at : *std::max_element(finish.begin(), finish.end());
  meter.finish(wall);

  RunResult result;
  result.nodes = nodes;
  if (policy != nullptr) {
    // Honest per-rank summary instead of mislabeling the whole run with
    // rank 0's gear: query each rank's compute gear *after* the run, so
    // adaptive policies report their final gears, and record the modal
    // gear (ties toward the faster gear) plus the min/max range.
    result.policy_run = true;
    std::vector<std::size_t> counts(config_.gears.size(), 0);
    std::size_t lo = config_.gears.size();
    std::size_t hi = 0;
    for (int r = 0; r < nodes; ++r) {
      const std::size_t g = policy->compute_gear(r);
      GEARSIM_REQUIRE(g < config_.gears.size(),
                      "policy gear out of range after run");
      ++counts[g];
      lo = std::min(lo, g);
      hi = std::max(hi, g);
    }
    std::size_t modal = 0;
    for (std::size_t g = 1; g < counts.size(); ++g) {
      if (counts[g] > counts[modal]) modal = g;
    }
    result.gear_index = modal;
    result.gear_min_index = lo;
    result.gear_max_index = hi;
  } else {
    result.gear_index = gear_index;
    result.gear_min_index = gear_index;
    result.gear_max_index = gear_index;
  }
  result.gear_label = config_.gears.gear(result.gear_index).label;
  result.wall = wall;
  result.energy = meter.total_energy();
  result.active_energy = meter.total_active_energy();
  result.idle_energy = meter.total_idle_energy();
  result.breakdown = trace::analyze_cluster(tracer, Seconds{}, wall);
  result.mpi_calls = world.traced_calls();
  result.event_order_hash = engine.order_hash();
  result.event_set_hash = engine.event_set_hash();
  result.messages = network.messages_carried();
  result.net_bytes = network.bytes_carried();
  result.retransmissions = network.retransmissions();
  for (std::uint64_t s : switches) result.gear_switches += s;
  result.gear_residency = std::move(residency);
  if (config_.sample_power) {
    Joules sampled{};
    double coverage = 0.0;
    for (const auto& mm : multimeters) {
      sampled += mm->energy();
      coverage += mm->coverage();
    }
    result.sampled_energy = sampled;
    // Every meter spans the same [0, wall] interval, so the plain mean is
    // the span-weighted coverage.
    result.sampled_coverage = coverage / static_cast<double>(nodes);
  }
  if (aborted) {
    result.outcome = RunOutcome::kFailed;
    result.fatal_crash = fatal;
  } else if (compose_mode) {
    // The engine simulated one solid run (environment faults only); fold
    // the plan's crashes into it through the checkpoint/restart model.
    // wall/energy/rework become end-to-end figures; the breakdown,
    // per-node energies and mean powers keep describing the solid run.
    const Joules solid_energy = result.energy;
    const faults::EnergyProfile profile =
        faults::EnergyProfile::from_meter(meter);
    const faults::RestartStats stats = faults::compose_restarts(
        wall, profile, static_cast<std::size_t>(nodes), *plan->checkpointing(),
        plan->crashes(), &fault_log);
    result.wall = stats.wall;
    result.energy = stats.energy;
    result.retries = stats.retries;
    result.rework_time = stats.rework_time;
    result.rework_energy = stats.rework_energy;
    result.checkpoint_time = stats.checkpoint_time;
    result.checkpoint_energy = stats.checkpoint_energy;
    if (!stats.completed) {
      result.outcome = RunOutcome::kFailed;
      result.fatal_crash = faults::CrashEvent{stats.failed_node,
                                              stats.failed_at};
    } else if (stats.retries > 0) {
      result.outcome = RunOutcome::kCompletedAfterRestart;
    }
    if (result.sampled_energy.has_value() && solid_energy.value() > 0.0) {
      // Scale the sampled reading by the same restart inflation the exact
      // integral saw (the rig would have metered the reruns too).
      result.sampled_energy =
          joules(result.sampled_energy->value() *
                 (stats.energy.value() / solid_energy.value()));
    }
  }
  if (obs::MetricsRegistry* reg = options.metrics) {
    reg->counter("cluster.runs").add();
    reg->counter("cluster.mpi_calls").add(result.mpi_calls);
    reg->counter("cluster.gear_switches").add(result.gear_switches);
    for (const trace::FaultEvent& ev : fault_log) {
      switch (ev.kind) {
        case trace::FaultEventKind::kNodeCrash:
          reg->counter("faults.crashes").add();
          break;
        case trace::FaultEventKind::kStragglerBegin:
          reg->counter("faults.straggler_windows").add();
          break;
        case trace::FaultEventKind::kLinkDrop:
          reg->counter("faults.link_drop_bursts").add();
          break;
        case trace::FaultEventKind::kMeterDropBegin:
          reg->counter("faults.meter_dropouts").add();
          break;
        case trace::FaultEventKind::kCheckpoint:
          reg->counter("faults.checkpoints").add();
          break;
        case trace::FaultEventKind::kRestart:
          reg->counter("faults.restarts").add();
          break;
        case trace::FaultEventKind::kStragglerEnd:
        case trace::FaultEventKind::kMeterDropEnd:
          break;  // Window closings pair with the Begin counts above.
      }
    }
    if (compose_mode) {
      // Sum + count live in the histogram, so sweeps aggregate how much
      // wall time went to re-execution and checkpoint I/O across points.
      reg->histogram("faults.rework_seconds", {0.1, 1.0, 10.0, 100.0, 1000.0})
          .observe(result.rework_time.value());
      reg->histogram("faults.checkpoint_seconds",
                     {0.1, 1.0, 10.0, 100.0, 1000.0})
          .observe(result.checkpoint_time.value());
    }
  }
  if (!options.trace_csv_path.empty()) {
    trace::export_csv_file(tracer, options.trace_csv_path, fault_log);
  }
  if (!options.timeline_svg_path.empty()) {
    trace::write_timeline(tracer, wall,
                           workload.name() + " on " + std::to_string(nodes) +
                               " nodes (gear " +
                               std::to_string(result.gear_label) + ")",
                           options.timeline_svg_path, fault_log);
  }
  result.fault_events = std::move(fault_log);
  result.node_energy.reserve(static_cast<std::size_t>(nodes));

  // Time-weighted cluster means of active/idle power: the paper's P_g and
  // I_g probes when the run executes at a single gear.
  Seconds active_time{};
  Seconds idle_time{};
  for (int r = 0; r < nodes; ++r) {
    const auto& ne = meter.node(static_cast<std::size_t>(r));
    result.node_energy.push_back(ne);
    active_time += ne.active_time;
    idle_time += ne.idle_time;
  }
  result.mean_active_power = active_time.value() > 0.0
                                 ? result.active_energy / active_time
                                 : Watts{};
  result.mean_idle_power =
      idle_time.value() > 0.0 ? result.idle_energy / idle_time : Watts{};
  return result;
}

std::vector<RunResult> ExperimentRunner::gear_sweep(const Workload& workload,
                                                    int nodes,
                                                    int jobs) const {
  // Each gear point is a pure function of (config_, workload, nodes, g):
  // run() builds its own engine, meter and RNG streams from those alone,
  // so the points fan out over the pool with bit-identical results for
  // any job count.
  std::vector<RunResult> results(config_.gears.size());
  parallel_for_ordered(jobs, config_.gears.size(), [&](std::size_t g) {
    results[g] = run(workload, nodes, g);
  });
  return results;
}

double speedup(const RunResult& a, const RunResult& b) {
  GEARSIM_REQUIRE(b.wall.value() > 0.0, "zero-time run");
  return a.wall / b.wall;
}

}  // namespace gearsim::cluster
