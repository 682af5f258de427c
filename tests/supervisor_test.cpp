// Tests for supervised sweep execution (SweepRunner::supervise): per-job
// failure isolation, transient-vs-permanent retry classification, the
// wall-clock watchdog, strict-mode throw-through (run() is that mode),
// cache integration and the supervision metrics.  Every fault is
// injected through util::Failpoints keyed by job index, so each failure
// schedule replays exactly under any worker count.
//
// The Soak* tests are the CI resilience gate: a 200-job sweep under a
// seeded random failure pattern plus store-write corruption must complete
// every healthy job, report exactly the injected failures, and serve zero
// corrupt bytes on the warm re-run (docs/RESILIENCE.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "exec/result_cache.hpp"
#include "exec/result_io.hpp"
#include "exec/store.hpp"
#include "exec/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "workloads/jacobi.hpp"

namespace gearsim::exec {
namespace {

using util::FailpointSpec;
using util::ScopedFailpoint;

/// A scratch directory removed on destruction, for disk-store tests.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("gearsim_supervisor_test_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// Fast Jacobi variant so a 200-job soak stays in test-suite budget.
workloads::Jacobi tiny_jacobi() {
  workloads::Jacobi::Params p;
  p.iterations = 5;
  p.seq_active = seconds(2.0);
  p.norm_every = 1;
  return workloads::Jacobi(p);
}

std::vector<SweepPoint> make_points(const cluster::Workload& w,
                                    std::size_t count) {
  std::vector<SweepPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(SweepPoint{&w, 2, i % 6, static_cast<int>(i / 6)});
  }
  return points;
}

FailpointSpec at_indices(std::vector<std::int64_t> indices,
                         std::int64_t times = 1, std::int64_t arg = 0) {
  FailpointSpec spec;
  spec.indices = std::move(indices);
  spec.times = times;
  spec.arg = arg;
  return spec;
}

// ---- isolation and retries --------------------------------------------------

TEST(SweepSupervisorTest, IsolatesOneFailingJob) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 4);
  const SweepRunner runner(cluster::athlon_cluster());
  const ScopedFailpoint fp("exec.supervisor.job.throw_permanent",
                           at_indices({2}));

  const SweepOutcome outcome = runner.supervise(points, {});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.completed(), 3u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  const JobFailure& f = outcome.failures[0];
  EXPECT_EQ(f.index, 2u);
  EXPECT_EQ(f.kind, FailureKind::kPermanent);
  EXPECT_EQ(f.attempts, 1);  // Permanent failures never retry.
  EXPECT_NE(f.error.find("throw_permanent"), std::string::npos);
  EXPECT_NE(f.point.find("gear=3"), std::string::npos);
  EXPECT_FALSE(outcome.results[2].has_value());
  EXPECT_TRUE(outcome.results[0].has_value());
  EXPECT_TRUE(outcome.results[3].has_value());
  EXPECT_NE(outcome.report().find("job #2"), std::string::npos);
}

TEST(SweepSupervisorTest, TransientFailureRetriesToSuccess) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 2);
  const SweepRunner reference(cluster::athlon_cluster());
  const auto clean = reference.run(points);

  SupervisorOptions sup;
  sup.max_attempts = 3;
  const SweepRunner runner(cluster::athlon_cluster());
  // Job 0 throws a TransientError on its first two attempts only.
  const ScopedFailpoint fp("exec.supervisor.job.throw",
                           at_indices({0}, /*times=*/2));

  const SweepOutcome outcome = runner.supervise(points, sup);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.retries, 2u);
  ASSERT_TRUE(outcome.results[0].has_value());
  // The retried result is bit-identical to a failure-free run: retries
  // re-enter the same deterministic simulation.
  EXPECT_EQ(to_json(*outcome.results[0]), to_json(clean[0]));
  EXPECT_EQ(to_json(*outcome.results[1]), to_json(clean[1]));
}

TEST(SweepSupervisorTest, TransientRetryBudgetExhausts) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 2);
  SupervisorOptions sup;
  sup.max_attempts = 2;
  const SweepRunner runner(cluster::athlon_cluster());
  const ScopedFailpoint fp("exec.supervisor.job.throw",
                           at_indices({1}, /*times=*/-1));

  const SweepOutcome outcome = runner.supervise(points, sup);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].index, 1u);
  EXPECT_EQ(outcome.failures[0].attempts, 2);
  EXPECT_EQ(outcome.failures[0].kind, FailureKind::kTransient);
  EXPECT_EQ(outcome.retries, 1u);
  EXPECT_TRUE(outcome.results[0].has_value());
}

TEST(SweepSupervisorTest, CustomClassifierOverridesDefault) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 1);
  SupervisorOptions sup;
  sup.max_attempts = 3;
  // Treat even the permanent failpoint's SimulationError as transient:
  // the job must then burn the whole retry budget.
  sup.classify = [](const std::exception&) {
    return FailureKind::kTransient;
  };
  const SweepRunner runner(cluster::athlon_cluster());
  const ScopedFailpoint fp("exec.supervisor.job.throw_permanent",
                           at_indices({0}, /*times=*/-1));

  const SweepOutcome outcome = runner.supervise(points, sup);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].attempts, 3);
  EXPECT_EQ(outcome.failures[0].kind, FailureKind::kTransient);
}

TEST(SweepSupervisorTest, DefaultClassification) {
  EXPECT_EQ(classify_failure(TransientError("io wobble")),
            FailureKind::kTransient);
  EXPECT_EQ(classify_failure(std::system_error(
                std::make_error_code(std::errc::io_error))),
            FailureKind::kTransient);
  EXPECT_EQ(classify_failure(ContractError("bad point")),
            FailureKind::kPermanent);
  EXPECT_EQ(classify_failure(SimulationError("deadlock")),
            FailureKind::kPermanent);
  EXPECT_EQ(classify_failure(std::runtime_error("anything else")),
            FailureKind::kPermanent);
}

// ---- validation, strict mode, watchdog --------------------------------------

TEST(SweepSupervisorTest, EscapedJobExceptionIsContainedAndBookkept) {
  // Regression for the watchdog-vs-fail-fast race: an exception escaping
  // the per-attempt retry loop (classification, allocation, the escape
  // failpoint itself) used to propagate into parallel_for_ordered, whose
  // fail-fast stop abandoned not-yet-claimed jobs and skipped the
  // watchdog bookkeeping for in-flight ones.  The outer catch now turns
  // any escape into a permanent JobFailure, so every other job still
  // runs and every completed job still gets its watchdog check.
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 6);
  SweepOptions sweep;
  sweep.jobs = 2;
  SupervisorOptions sup;
  // A watchdog threshold of ~zero flags every completed job: proves the
  // flagging pass ran for all of them despite the escape.
  sup.watchdog_seconds = 1e-9;
  const SweepRunner runner(cluster::athlon_cluster(), sweep);
  const ScopedFailpoint fp("exec.supervisor.job.escape", at_indices({3}));

  const SweepOutcome outcome = runner.supervise(points, sup);
  EXPECT_EQ(outcome.completed(), 5u);  // No abandoned tail.
  ASSERT_EQ(outcome.failures.size(), 1u);
  const JobFailure& f = outcome.failures[0];
  EXPECT_EQ(f.index, 3u);
  EXPECT_EQ(f.kind, FailureKind::kPermanent);
  EXPECT_NE(f.error.find("supervisor job escape:"), std::string::npos);
  EXPECT_NE(f.error.find("exec.supervisor.job.escape"), std::string::npos);
  // Watchdog flags every *completed* job (5 of 6) — the escaped job never
  // finished an attempt, so it is not in the runaway list, and the list
  // stays sorted by job index.
  EXPECT_EQ(outcome.runaway.size(), 5u);
  EXPECT_TRUE(std::is_sorted(outcome.runaway.begin(), outcome.runaway.end()));
  for (const std::size_t idx : outcome.runaway) EXPECT_NE(idx, 3u);
}

TEST(SweepSupervisorTest, ValidationFailureIsIsolated) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  std::vector<SweepPoint> points = make_points(jacobi, 3);
  points[1].nodes = 0;  // Invalid: fails validate_point.

  const SweepRunner runner(cluster::athlon_cluster());
  const SweepOutcome outcome = runner.supervise(points, {});
  EXPECT_EQ(outcome.completed(), 2u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].index, 1u);
  EXPECT_EQ(outcome.failures[0].attempts, 0);  // Never reached simulation.
  EXPECT_EQ(outcome.failures[0].kind, FailureKind::kPermanent);
}

TEST(SweepSupervisorTest, StrictModeRethrowsLowestIndexFailure) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 4);
  SupervisorOptions sup;
  sup.strict = true;
  const SweepRunner runner(cluster::athlon_cluster());
  const ScopedFailpoint fp("exec.supervisor.job.throw_permanent",
                           at_indices({3, 1}, /*times=*/-1));

  try {
    (void)runner.supervise(points, sup);
    FAIL() << "strict mode must rethrow";
  } catch (const SimulationError& e) {
    // The lowest-index failure, matching what serial throw-through
    // surfaces first.
    EXPECT_NE(std::string(e.what()).find("job 1"), std::string::npos);
  }
  // run() is strict mode with one attempt: the same failpoints fire, and
  // the same failure surfaces.
  try {
    (void)runner.run(points);
    FAIL() << "run() must rethrow";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("job 1"), std::string::npos);
  }
}

TEST(SweepSupervisorTest, WatchdogFlagsRunawayJob) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 3);
  SupervisorOptions sup;
  sup.watchdog_seconds = 0.005;
  const SweepRunner runner(cluster::athlon_cluster());
  // Job 1 stalls for 50 ms of wall time — a runaway config.  It still
  // completes: the watchdog flags, it never kills.
  const ScopedFailpoint fp("exec.supervisor.job.slow",
                           at_indices({1}, /*times=*/1, /*arg=*/50));

  const SweepOutcome outcome = runner.supervise(points, sup);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.completed(), 3u);
  ASSERT_FALSE(outcome.runaway.empty());
  EXPECT_TRUE(std::find(outcome.runaway.begin(), outcome.runaway.end(), 1u) !=
              outcome.runaway.end());
}

// ---- cache integration and metrics -------------------------------------------

TEST(SweepSupervisorTest, FailedJobDoesNotPoisonCache) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 2);
  ResultCache cache;
  SweepOptions options;
  options.cache = &cache;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  {
    const ScopedFailpoint fp("exec.supervisor.job.throw_permanent",
                             at_indices({0}));
    const SweepOutcome outcome = runner.supervise(points, {});
    EXPECT_EQ(outcome.completed(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);  // Only the success cached.
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_FALSE(outcome.failures[0].key.empty());  // Hash named anyway.
  }
  // Failpoint gone: the failed point simulates (a miss, not a poisoned
  // hit), the completed one is served from memory.
  const SweepOutcome retry = runner.supervise(points, {});
  EXPECT_TRUE(retry.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  const SweepRunner reference(cluster::athlon_cluster());
  const auto clean = reference.run(points);
  EXPECT_EQ(to_json(*retry.results[0]), to_json(clean[0]));
}

TEST(SweepSupervisorTest, ReportsSupervisionMetrics) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const auto points = make_points(jacobi, 3);
  obs::MetricsRegistry reg;
  SweepOptions options;
  options.metrics = &reg;
  SupervisorOptions sup;
  sup.max_attempts = 2;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  const ScopedFailpoint fp("exec.supervisor.job.throw",
                           at_indices({2}, /*times=*/-1));

  const SweepOutcome outcome = runner.supervise(points, sup);
  EXPECT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(reg.counter("exec.sweep.points").value(), 3u);
  EXPECT_EQ(reg.counter("exec.supervisor.jobs").value(), 3u);
  EXPECT_EQ(reg.counter("exec.supervisor.failures").value(), 1u);
  EXPECT_EQ(reg.counter("exec.supervisor.retries").value(), 1u);
}

// ---- soak: the CI resilience gate -------------------------------------------

/// 200 jobs, 20 seeded-random permanent failures, store writes torn every
/// 7th insert.  The supervised sweep must complete exactly the healthy
/// 180, report exactly the injected indices, and a warm re-run over the
/// (partially corrupted) store must quarantine — never serve — the torn
/// entries and reproduce every result byte for byte.
TEST(SoakTest, SupervisedSweepUnderSeededFaults) {
  const workloads::Jacobi jacobi = tiny_jacobi();
  const std::size_t kJobs = 200;
  const auto points = make_points(jacobi, kJobs);

  // Seeded, so every run of the suite injects the identical pattern.
  std::mt19937 rng(20260808u);
  std::set<std::int64_t> failing;
  std::uniform_int_distribution<std::int64_t> pick(
      0, static_cast<std::int64_t>(kJobs) - 1);
  while (failing.size() < 20) failing.insert(pick(rng));

  const TempDir dir("soak");
  ResultCache::Options cache_options;
  cache_options.disk_dir = dir.path.string();

  std::vector<std::string> cold(kJobs);
  {
    ResultCache cache(cache_options);
    SweepOptions options;
    options.cache = &cache;
    const SweepRunner runner(cluster::athlon_cluster(), options);
    const ScopedFailpoint fail_jobs(
        "exec.supervisor.job.throw_permanent",
        at_indices({failing.begin(), failing.end()}, /*times=*/-1));
    FailpointSpec torn;  // Tear store writes #7, #14, #21, ...
    torn.skip = 6;
    torn.times = -1;
    torn.every = 7;
    const ScopedFailpoint tear_writes("exec.store.write.truncate", torn);

    const SweepOutcome outcome = runner.supervise(points, {});
    EXPECT_EQ(outcome.completed(), kJobs - failing.size());
    ASSERT_EQ(outcome.failures.size(), failing.size());
    for (const JobFailure& f : outcome.failures) {
      EXPECT_EQ(failing.count(static_cast<std::int64_t>(f.index)), 1u)
          << "unexpected failure at job " << f.index;
      EXPECT_EQ(f.kind, FailureKind::kPermanent);
    }
    for (std::size_t i = 0; i < kJobs; ++i) {
      if (outcome.results[i].has_value()) cold[i] = to_json(*outcome.results[i]);
    }
  }

  // The torn writes left corrupt entries behind; verify sees them.
  const StoreReport damage = verify_store(dir.path.string());
  const std::size_t torn = damage.corrupt.size();
  EXPECT_GT(torn, 0u);
  EXPECT_EQ(damage.scanned, kJobs - failing.size());

  // Warm re-run, failpoints disarmed: corrupt entries are quarantined and
  // recomputed, valid entries served — and every byte matches the cold
  // pass.  Zero corrupt entries served is exactly this equality.
  {
    ResultCache cache(cache_options);
    SweepOptions options;
    options.cache = &cache;
    const SweepRunner runner(cluster::athlon_cluster(), options);
    const SweepOutcome warm = runner.supervise(points, {});
    EXPECT_TRUE(warm.ok());
    EXPECT_EQ(warm.results.size(), kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
      ASSERT_TRUE(warm.results[i].has_value());
      if (!cold[i].empty()) {
        EXPECT_EQ(to_json(*warm.results[i]), cold[i]) << "point " << i;
      }
    }
    EXPECT_EQ(cache.stats().corrupt, torn);
    EXPECT_EQ(cache.stats().quarantined, torn);
    EXPECT_EQ(cache.stats().disk_hits, kJobs - failing.size() - torn);
  }

  // After the warm pass the store is whole again: quarantine holds the
  // torn bytes, the live directory verifies clean.
  const StoreReport healed = verify_store(dir.path.string());
  EXPECT_TRUE(healed.corrupt.empty());
  EXPECT_EQ(healed.scanned, kJobs);
}

}  // namespace
}  // namespace gearsim::exec
