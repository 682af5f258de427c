#include "exec/sweep_runner.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"

namespace gearsim::exec {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::string describe_point(const SweepPoint& p) {
  std::ostringstream os;
  os << (p.workload != nullptr ? p.workload->name() : std::string("<null>"))
     << " nodes=" << p.nodes << " gear=" << p.gear_index + 1
     << " rep=" << p.rep;
  if (p.policy != nullptr) os << " policy=" << p.policy->signature();
  return os.str();
}

/// Mutable per-job scratch; index-aligned with the submitted points, so
/// workers write disjoint slots and the calling thread folds in request
/// order after the pool drains.
struct JobState {
  bool valid = false;      ///< Passed validate_point.
  bool cache_hit = false;
  bool completed = false;
  int attempts = 0;
  FailureKind kind = FailureKind::kPermanent;
  std::string error;
  std::exception_ptr eptr;
  double wall_seconds = 0.0;
  obs::MetricsSnapshot snapshot;  ///< Simulated jobs only.
};

}  // namespace

const char* to_string(FailureKind kind) {
  return kind == FailureKind::kTransient ? "transient" : "permanent";
}

FailureKind classify_failure(const std::exception& e) {
  // Retry only conditions that a re-run can plausibly clear.  A
  // deterministic simulation that threw (ContractError, SimulationError,
  // a workload bug) will throw identically on every attempt.
  if (dynamic_cast<const TransientError*>(&e) != nullptr ||
      dynamic_cast<const std::system_error*>(&e) != nullptr ||
      dynamic_cast<const std::ios_base::failure*>(&e) != nullptr) {
    return FailureKind::kTransient;
  }
  return FailureKind::kPermanent;
}

std::size_t SweepOutcome::completed() const {
  std::size_t n = 0;
  for (const auto& r : results) {
    if (r.has_value()) ++n;
  }
  return n;
}

std::string SweepOutcome::report() const {
  std::ostringstream os;
  for (const JobFailure& f : failures) {
    os << "job #" << f.index << " (" << f.point << "): " << f.error << " ["
       << to_string(f.kind) << ", attempts=" << f.attempts;
    if (!f.key.empty()) os << ", key=" << f.key;
    os << "]\n";
  }
  return os.str();
}

SweepRunner::SweepRunner(cluster::ClusterConfig config, SweepOptions options)
    : config_(std::move(config)), options_(options) {}

void SweepRunner::validate_point(const SweepPoint& p) const {
  const cluster::ClusterConfig& base = config_.config();
  GEARSIM_REQUIRE(p.workload != nullptr, "sweep point without a workload");
  GEARSIM_REQUIRE(p.nodes >= 1 && p.nodes <= base.max_nodes,
                  "sweep point node count out of range");
  GEARSIM_REQUIRE(p.gear_index < base.gears.size(),
                  "sweep point gear out of range");
  GEARSIM_REQUIRE(p.rep >= 0, "sweep point repetition must be >= 0");
}

CacheKey SweepRunner::point_key(const SweepPoint& p) const {
  return sweep_point_key(
      config_.config(), p.workload->signature(), p.nodes, p.gear_index, p.rep,
      options_.faults,
      p.policy != nullptr ? p.policy->signature() : std::string());
}

cluster::RunResult SweepRunner::simulate_point(
    const SweepPoint& p, obs::MetricsRegistry* point_metrics) const {
  const cluster::ClusterConfig& base = config_.config();
  cluster::RunOptions run_options;
  run_options.gear_index = p.gear_index;
  run_options.faults = options_.faults;
  run_options.metrics = point_metrics;
  run_options.engine_threads = options_.engine_threads;
  // A fresh policy instance per point: adaptive controllers carry
  // per-run state, and concurrent workers must never share one.
  std::unique_ptr<cluster::GearPolicy> policy;
  if (p.policy != nullptr) {
    policy = p.policy->instantiate(p.nodes);
    run_options.policy = policy.get();
  }
  if (p.rep == 0) {
    return config_.run(*p.workload, p.nodes, run_options);
  }
  // Repetition r is the same point under shifted seeds: (seed + r,
  // jitter_seed + r), a pure function of r — never a shared RNG.
  cluster::ClusterConfig shifted = base;
  shifted.seed = base.seed + static_cast<std::uint64_t>(p.rep);
  shifted.network.jitter_seed =
      base.network.jitter_seed + static_cast<std::uint64_t>(p.rep);
  const cluster::ExperimentRunner sub(shifted);
  return sub.run(*p.workload, p.nodes, run_options);
}

std::vector<cluster::RunResult> SweepRunner::run(
    const std::vector<SweepPoint>& points) const {
  // Validate everything up front: a bad point must fail before any
  // simulation time (or cache traffic) is spent.
  for (const SweepPoint& p : points) validate_point(p);
  SupervisorOptions strict;
  strict.max_attempts = 1;
  strict.strict = true;
  SweepOutcome outcome = supervise(points, strict);
  std::vector<cluster::RunResult> results;
  results.reserve(points.size());
  for (std::optional<cluster::RunResult>& r : outcome.results) {
    results.push_back(std::move(*r));
  }
  return results;
}

SweepOutcome SweepRunner::supervise(const std::vector<SweepPoint>& points,
                                    const SupervisorOptions& sup) const {
  GEARSIM_REQUIRE(sup.max_attempts >= 1,
                  "supervisor needs at least one attempt per job");
  GEARSIM_REQUIRE(sup.backoff_base_seconds >= 0.0,
                  "backoff base must be >= 0");
  GEARSIM_REQUIRE(sup.watchdog_seconds >= 0.0,
                  "watchdog threshold must be >= 0");
  const std::size_t n = points.size();
  const auto classify =
      sup.classify ? sup.classify
                   : std::function<FailureKind(const std::exception&)>(
                         &classify_failure);

  SweepOutcome outcome;
  outcome.results.resize(n);
  std::vector<JobState> jobs(n);
  std::vector<CacheKey> keys(options_.cache != nullptr ? n : 0);
  std::vector<std::size_t> pending;
  pending.reserve(n);

  // Phase 1, calling thread: per-job validation (a bad point fails alone
  // — run() validates the whole list before it gets here) and cache
  // probes.
  for (std::size_t i = 0; i < n; ++i) {
    try {
      validate_point(points[i]);
    } catch (const std::exception& e) {
      jobs[i].error = e.what();
      jobs[i].eptr = std::current_exception();
      jobs[i].kind = FailureKind::kPermanent;
      continue;
    }
    jobs[i].valid = true;
    if (options_.cache != nullptr) {
      keys[i] = point_key(points[i]);
      if (auto hit = options_.cache->lookup(keys[i])) {
        outcome.results[i] = std::move(*hit);
        jobs[i].completed = true;
        jobs[i].cache_hit = true;
        continue;
      }
    }
    pending.push_back(i);
  }

  // Sweep-level bookkeeping happens on the calling thread only; workers
  // write per-job slots and per-point registries, never `reg` itself.
  obs::MetricsRegistry* const reg = options_.metrics;
  const CacheStats stats_before = cache_stats();
  const SteadyClock::time_point sweep_start = SteadyClock::now();

  // One job's attempt/retry loop.  Exceptions from the *simulation* are
  // absorbed into the JobState here; anything thrown past this function
  // (classify, allocation failure, the escape failpoint) is caught by
  // the outer handler at the call site.
  const auto run_one_job = [&](JobState& job, std::size_t i,
                               std::int64_t job_index) {
    // Failpoint modeling an exception that escapes the per-attempt
    // handling — the class of bug the outer catch exists for.
    if (util::failpoint("exec.supervisor.job.escape", job_index)) {
      throw SimulationError("failpoint exec.supervisor.job.escape fired for job " +
                            std::to_string(i));
    }
    for (int attempt = 1;; ++attempt) {
      job.attempts = attempt;
      const SteadyClock::time_point start = SteadyClock::now();
      try {
        // Failpoints (deterministic, keyed by job index; see
        // docs/RESILIENCE.md).  job.slow's arg is a sleep in
        // milliseconds — the watchdog test's runaway config.
        if (util::failpoint("exec.supervisor.job.throw", job_index)) {
          throw TransientError(
              "failpoint exec.supervisor.job.throw fired for job " +
              std::to_string(i));
        }
        if (util::failpoint("exec.supervisor.job.throw_permanent",
                            job_index)) {
          throw SimulationError(
              "failpoint exec.supervisor.job.throw_permanent fired "
              "for job " +
              std::to_string(i));
        }
        if (const auto ms =
                util::failpoint("exec.supervisor.job.slow", job_index)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
        }
        // A private registry per point: the engine's discipline makes
        // each point single-threaded, so no atomics are needed anywhere.
        std::unique_ptr<obs::MetricsRegistry> point_reg;
        if (reg != nullptr) {
          point_reg = std::make_unique<obs::MetricsRegistry>();
        }
        cluster::RunResult result = simulate_point(points[i], point_reg.get());
        job.wall_seconds += seconds_since(start);
        if (options_.cache != nullptr) {
          options_.cache->insert(keys[i], result);
        }
        if (point_reg != nullptr) job.snapshot = point_reg->snapshot();
        outcome.results[i] = std::move(result);
        job.completed = true;
        return;
      } catch (const std::exception& e) {
        job.wall_seconds += seconds_since(start);
        job.error = e.what();
        job.eptr = std::current_exception();
        job.kind = classify(e);
      } catch (...) {
        job.wall_seconds += seconds_since(start);
        job.error = "unknown exception";
        job.eptr = std::current_exception();
        job.kind = FailureKind::kPermanent;
      }
      if (job.kind != FailureKind::kTransient ||
          attempt >= sup.max_attempts) {
        return;  // Terminal: permanent, or retry budget exhausted.
      }
      // Deterministic exponential backoff: attempt k waits
      // base * 2^(k-2) seconds before running.
      if (sup.backoff_base_seconds > 0.0) {
        const double wait =
            sup.backoff_base_seconds *
            static_cast<double>(std::uint64_t{1} << (attempt - 1));
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    }
  };

  // Phase 2, worker pool: every pending job under exception isolation.
  // Nothing escapes the lambda, so parallel_for_ordered never aborts and
  // every job gets its turn regardless of its neighbours' fate.  That
  // guarantee must hold *unconditionally*: an escaped exception trips
  // parallel_for_ordered's fail-fast stop flag, unclaimed jobs are
  // silently skipped, and a job legitimately flagged slow while the pool
  // drains would lose its phase-3 bookkeeping — runaway flag and
  // JobFailure record — to the sweep-wide rethrow.  run_one_job's inner
  // try does not cover everything, though: the user-supplied `classify`
  // callback runs in the *catch* handler and may itself throw, as may
  // the error-string copy.  The outer catch here turns any such escape
  // into a recorded permanent failure for this job, so phase 3 always
  // runs over every job.
  parallel_for_ordered(
      options_.jobs, pending.size(), [&](std::size_t m) {
        const std::size_t i = pending[m];
        JobState& job = jobs[i];
        try {
          run_one_job(job, i, static_cast<std::int64_t>(i));
        } catch (const std::exception& e) {
          job.eptr = std::current_exception();
          job.kind = FailureKind::kPermanent;
          job.completed = false;
          try {
            job.error = std::string("supervisor job escape: ") + e.what();
          } catch (...) {
            job.error.clear();
          }
        } catch (...) {
          job.eptr = std::current_exception();
          job.kind = FailureKind::kPermanent;
          job.completed = false;
        }
      });

  // Phase 3, calling thread: fold in request order (determinism), build
  // the failure report, apply the watchdog.
  std::size_t cache_hits = 0;
  std::size_t simulated = 0;
  for (std::size_t i = 0; i < n; ++i) {
    JobState& job = jobs[i];
    if (job.attempts > 1) {
      outcome.retries += static_cast<std::uint64_t>(job.attempts - 1);
    }
    if (job.cache_hit) ++cache_hits;
    if (job.completed && !job.cache_hit) {
      ++simulated;
      // Request-order fold: merging snapshots in job order (not
      // completion order) keeps every sim-domain value bit-identical
      // for any job count.
      if (reg != nullptr && !job.snapshot.empty()) reg->merge(job.snapshot);
    }
    if (sup.watchdog_seconds > 0.0 &&
        job.wall_seconds > sup.watchdog_seconds) {
      outcome.runaway.push_back(i);
    }
    if (!job.completed) {
      JobFailure failure;
      failure.index = i;
      failure.point = describe_point(points[i]);
      failure.key = (options_.cache != nullptr && job.valid)
                        ? keys[i].hex()
                        : std::string();
      failure.attempts = job.attempts;
      failure.kind = job.kind;
      failure.error = job.error;
      failure.wall_seconds = job.wall_seconds;
      outcome.failures.push_back(std::move(failure));
    }
  }

  if (reg != nullptr) {
    reg->counter("exec.sweep.points").add(n);
    reg->counter("exec.supervisor.jobs").add(n);
    reg->counter("exec.supervisor.failures").add(outcome.failures.size());
    reg->counter("exec.supervisor.retries").add(outcome.retries);
    if (options_.cache != nullptr) {
      reg->counter("exec.cache.hits").add(cache_hits);
      reg->counter("exec.cache.misses").add(pending.size());
      reg->counter("exec.cache.insertions").add(simulated);
    }
    // Evictions are order-independent under the LRU capacity rule (each
    // insert beyond capacity evicts exactly one entry), so the delta is
    // safe to report as a sim-domain counter.
    reg->counter("exec.cache.evictions")
        .add(cache_stats().evictions - stats_before.evictions);
    // Wall-clock derived, so never sim-domain (comparable) metrics.
    if (reg->wall_profiling()) {
      reg->wall_counter("exec.supervisor.runaway")->add(outcome.runaway.size());
      obs::Histogram& h = *reg->wall_histogram(
          "exec.sweep.point_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0});
      double busy = 0.0;
      for (const std::size_t i : pending) {
        h.observe(jobs[i].wall_seconds);
        busy += jobs[i].wall_seconds;
      }
      const double elapsed = seconds_since(sweep_start);
      const int workers = resolve_jobs(options_.jobs);
      reg->wall_gauge("exec.sweep.jobs", obs::Gauge::Kind::kLast)
          ->set(static_cast<double>(workers));
      if (elapsed > 0.0 && !pending.empty()) {
        // Busy fraction of the pool: 1.0 means every worker simulated for
        // the whole sweep; low values mean queue-wait or load imbalance.
        reg->wall_gauge("exec.sweep.utilization", obs::Gauge::Kind::kLast)
            ->set(busy / (elapsed * static_cast<double>(workers)));
      }
    }
  }

  if (sup.strict && !outcome.failures.empty()) {
    // The lowest-index failure, exactly what a serial loop would have
    // surfaced first.
    std::rethrow_exception(jobs[outcome.failures.front().index].eptr);
  }
  return outcome;
}

std::vector<cluster::RunResult> SweepRunner::gear_sweep(
    const cluster::Workload& workload, int nodes) const {
  std::vector<SweepPoint> points;
  points.reserve(config_.num_gears());
  for (std::size_t g = 0; g < config_.num_gears(); ++g) {
    points.push_back(SweepPoint{&workload, nodes, g, 0});
  }
  return run(points);
}

std::vector<cluster::RunResult> SweepRunner::grid(
    const cluster::Workload& workload,
    const std::vector<int>& node_counts) const {
  std::vector<SweepPoint> points;
  points.reserve(node_counts.size() * config_.num_gears());
  for (int nodes : node_counts) {
    for (std::size_t g = 0; g < config_.num_gears(); ++g) {
      points.push_back(SweepPoint{&workload, nodes, g, 0});
    }
  }
  return run(points);
}

CacheStats SweepRunner::cache_stats() const {
  return options_.cache != nullptr ? options_.cache->stats() : CacheStats{};
}

}  // namespace gearsim::exec
