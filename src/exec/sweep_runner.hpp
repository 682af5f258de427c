// The sweep executor.
//
// A sweep is a list of independent (workload, nodes, gear, rep) points
// over one ClusterConfig.  SweepRunner fans them out over a fixed pool
// of worker threads (util/parallel.hpp) — each in-flight point owns its
// whole simulation (engine, meters, world), so workers never share
// mutable state — and returns results in request order.  Because every
// point's RNG streams derive from the (config, point) tuple and never
// from a shared generator, the output is bit-identical to a serial loop
// regardless of job count or scheduling (regression-tested in
// tests/exec_test.cpp).
//
// supervise() is the one execution loop.  Each job runs under its own
// exception isolation: failures are caught, classified (transient vs
// permanent), retried on a bounded deterministic backoff schedule when
// transient, and recorded as structured JobFailure entries.  The outcome
// holds *all* completed results (index-aligned, cache-served or
// simulated) plus the failure report.  A per-job wall-clock watchdog
// flags runaway configs (flagged, never killed — a cooperative
// simulation cannot be safely interrupted mid-run).  Failure schedules
// are deterministic when the faults are: the failpoints in
// util/failpoint.hpp key off the job index, so tests replay exact
// failure patterns under any parallelism.
//
// run() is supervise() in strict mode with one attempt per job: every
// job drains (completed points are cached), then the lowest-index
// failure is rethrown — what a serial loop would have hit first.
//
// An optional ResultCache short-circuits points that were already
// simulated — by this process or, with a disk store, by any earlier
// one.  See docs/EXECUTOR.md and docs/RESILIENCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/result_cache.hpp"

namespace gearsim::exec {

/// One independent simulation point of a sweep.
struct SweepPoint {
  const cluster::Workload* workload = nullptr;  ///< Must outlive the sweep.
  int nodes = 1;
  std::size_t gear_index = 0;
  /// Repetition index: the point runs with (config.seed + rep,
  /// jitter_seed + rep) — the simulation analogue of repeating a
  /// wall-outlet measurement.
  int rep = 0;
  /// Optional DVFS policy; overrides gear_index when set (must outlive
  /// the sweep).  A *factory* rather than a policy instance because
  /// adaptive controllers carry per-run state: the runner instantiates a
  /// fresh policy for every point, so concurrent points never share one.
  /// The factory's signature() joins the cache key — see
  /// exec/cache_key.hpp.
  const cluster::PolicyFactory* policy = nullptr;
};

struct SweepOptions {
  /// Worker threads: 0 = GEARSIM_SWEEP_JOBS or serial, <0 = hardware
  /// concurrency (util/parallel.hpp resolve_jobs).
  int jobs = 0;
  /// Optional result cache; null = simulate every point.  Not owned.
  ResultCache* cache = nullptr;
  /// Optional fault plan applied to every point (must outlive the call).
  const faults::FaultPlan* faults = nullptr;
  /// Optional metrics registry (not owned; must outlive the call).  Each
  /// simulated point gets a private registry (workers never touch this
  /// one) and the per-point snapshots fold in *in request order* after
  /// the pool drains, so every sim-domain value is bit-identical for any
  /// job count.  Cache hits contribute exec.cache.hits instead of sim
  /// metrics — a hit never re-simulates.  When the registry has wall
  /// profiling enabled, per-point wall durations and pool utilization
  /// are recorded too (kWall domain, never deterministic).
  obs::MetricsRegistry* metrics = nullptr;
  /// Forwarded to cluster::RunOptions::engine_threads, which accepts
  /// only 0 or 1.  Not part of a point's identity or cache key.
  int engine_threads = 0;
};

/// Thrown (by failpoints, I/O layers, or user workloads) to mark a
/// failure worth retrying: the condition is environmental, not a
/// deterministic property of the config.  The default classifier treats
/// this type — and std::system_error / std::ios_base::failure — as
/// transient; everything else (ContractError, SimulationError, ...) as
/// permanent, because an identical re-run of a deterministic simulation
/// can only fail identically.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FailureKind { kTransient, kPermanent };
const char* to_string(FailureKind kind);

/// Default classification (see TransientError).
[[nodiscard]] FailureKind classify_failure(const std::exception& e);

/// One job's terminal failure, after retries were exhausted (transient)
/// or skipped (permanent).
struct JobFailure {
  std::size_t index = 0;  ///< Position in the submitted point list.
  std::string point;      ///< Human-readable point description.
  std::string key;        ///< Cache-key hash hex ("" without a cache or
                          ///< for points that failed validation).
  int attempts = 0;       ///< Simulation attempts made (0 = failed
                          ///< validation before any attempt).
  FailureKind kind = FailureKind::kPermanent;  ///< Last failure's class.
  std::string error;      ///< Last attempt's exception text.
  double wall_seconds = 0.0;  ///< Wall time spent across all attempts.
};

/// Everything a supervised sweep produced.
struct SweepOutcome {
  /// Index-aligned with the submitted points; nullopt = that job failed
  /// (its JobFailure is in `failures`).
  std::vector<std::optional<cluster::RunResult>> results;
  /// Terminal failures, ordered by job index.
  std::vector<JobFailure> failures;
  /// Jobs whose wall time exceeded the watchdog threshold (completed or
  /// failed), ordered by job index.  Wall-clock derived: never compare
  /// across runs.
  std::vector<std::size_t> runaway;
  /// Total retry attempts across all jobs (attempts beyond each job's
  /// first).
  std::uint64_t retries = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] std::size_t completed() const;
  /// Human-readable failure report (one line per failure; "" when ok).
  [[nodiscard]] std::string report() const;
};

struct SupervisorOptions {
  /// Max simulation attempts per job; only transient failures retry.
  int max_attempts = 3;
  /// Attempt k (k >= 2) waits base * 2^(k-2) seconds first — a
  /// deterministic schedule, not jittered.  0 = retry immediately.
  double backoff_base_seconds = 0.0;
  /// Flag jobs whose total wall time exceeds this; 0 = watchdog off.
  double watchdog_seconds = 0.0;
  /// Strict mode: after every job has drained, rethrow the lowest-index
  /// failure instead of returning it in the outcome (SweepRunner::run
  /// is this mode, for callers that must not continue).
  bool strict = false;
  /// Override the transient/permanent classification (null = default
  /// classify_failure).
  std::function<FailureKind(const std::exception&)> classify;
};

class SweepRunner {
 public:
  explicit SweepRunner(cluster::ClusterConfig config,
                       SweepOptions options = {});

  [[nodiscard]] const cluster::ClusterConfig& config() const {
    return config_.config();
  }
  [[nodiscard]] const SweepOptions& options() const { return options_; }

  /// Run every point (cache hits skipped, misses simulated in parallel);
  /// results in request order, bit-identical to a serial loop.  Strict
  /// mode of supervise() with one attempt per job: the whole list is
  /// validated up front, every job drains, then the lowest-index failure
  /// is rethrown.
  [[nodiscard]] std::vector<cluster::RunResult> run(
      const std::vector<SweepPoint>& points) const;

  /// Run every point under per-job isolation.  Cache hits short-circuit;
  /// completed results are bit-identical to run()'s.  Each point is
  /// validated on its own, so one bad point fails alone.  Strict mode
  /// throws the lowest-index failure after all jobs drain.
  [[nodiscard]] SweepOutcome supervise(
      const std::vector<SweepPoint>& points,
      const SupervisorOptions& supervisor) const;

  /// All gears at one node count, fastest first (the paper's energy-time
  /// curve).  Equivalent to ExperimentRunner::gear_sweep plus caching.
  [[nodiscard]] std::vector<cluster::RunResult> gear_sweep(
      const cluster::Workload& workload, int nodes) const;

  /// The full (gears × node counts) grid in row-major (nodes-major)
  /// order — the paper's Figure-2 family of curves in one call.
  [[nodiscard]] std::vector<cluster::RunResult> grid(
      const cluster::Workload& workload,
      const std::vector<int>& node_counts) const;

  /// Validate one point against the config; throws ContractError on a
  /// null workload or out-of-range nodes/gear/rep.
  void validate_point(const SweepPoint& p) const;

  /// The point's content-addressed cache key (full config + workload
  /// signature + coordinates + fault plan + policy identity).  The point
  /// must be valid.
  [[nodiscard]] CacheKey point_key(const SweepPoint& p) const;

  /// Cache statistics (zeroes when no cache is attached).
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  /// Simulate one validated point — no cache or sweep-level-metrics
  /// interaction.  When `point_metrics` is non-null the run is
  /// instrumented into it.  Thread-safe: concurrent calls share nothing
  /// mutable.
  [[nodiscard]] cluster::RunResult simulate_point(
      const SweepPoint& p, obs::MetricsRegistry* point_metrics) const;

  cluster::ExperimentRunner config_;
  SweepOptions options_;
};

}  // namespace gearsim::exec
