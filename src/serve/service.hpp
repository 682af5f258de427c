// The what-if query engine behind the gearsim daemon.
//
// Service answers protocol requests (serve/protocol.hpp) against one
// shared, shard-aware exec::ResultCache.  Three structural guarantees:
//
//  * exactly-once simulation — concurrent identical queries coalesce on
//    an exec::InflightTable: the first claimant of a cache key simulates
//    and publishes, every other claimant blocks for the published result.
//    simulations() exposes the exact count for tests.
//  * bounded admission — cache-miss batches pass an AdmissionGate before
//    touching a worker pool: at most `admit` points simulate at once,
//    at most `queue` more wait, and anything beyond that is *rejected
//    deterministically* with a constant retry_after_ms (backpressure the
//    caller can schedule around, not an error).
//  * byte-identical answers — responses embed exec::to_json(RunResult)
//    verbatim and carry no provenance, so a query answered from the hot
//    LRU, the disk store, a coalesced neighbor, or a cold simulation is
//    the same bytes (tests diff them against a cold `gearsim sweep`).
//
// Thread-safe: handle_line may be called from any number of connection
// threads.  Misses run through exec::SweepRunner::supervise, so a
// poisoned point fails its own query with a structured error instead of taking
// the daemon down.  See docs/SERVICE.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/inflight.hpp"
#include "exec/result_cache.hpp"
#include "exec/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace gearsim::serve {

/// Thrown inside a query when the admission gate turns its miss batch
/// away; handle_line renders it as a rejected response.
class RejectedError : public std::runtime_error {
 public:
  explicit RejectedError(int retry_after)
      : std::runtime_error("admission queue full"),
        retry_after_ms(retry_after) {}

  int retry_after_ms;
};

/// Bounded two-stage admission: `admit` units may be in flight, `queue`
/// more may block waiting, the rest reject immediately.  Units are
/// simulation points, so one 24-point sweep weighs 24 single runs.
class AdmissionGate {
 public:
  struct Options {
    std::size_t admit = 64;
    std::size_t queue = 256;
  };

  struct Stats {
    std::uint64_t admitted = 0;  ///< acquire() calls that ran.
    std::uint64_t queued = 0;    ///< ... of which waited in the queue first.
    std::uint64_t rejected = 0;  ///< acquire() calls turned away.
  };

  explicit AdmissionGate(Options options);

  /// Try to take `n` units; blocks while the queue has room, returns
  /// false (deterministically) when it does not — or when n > admit,
  /// which could never fit: size `admit` to the largest query you serve.
  /// Wake order among queued waiters is not FIFO; the queue bounds
  /// memory and latency, not ordering.
  [[nodiscard]] bool acquire(std::size_t n);
  void release(std::size_t n);

  [[nodiscard]] Stats stats() const;

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;
  std::size_t waiting_ = 0;
  Stats stats_;
};

struct ServiceOptions {
  /// Cache configuration (disk_dir, shard_digits, shard_entry_budget,
  /// capacity).  The metrics slot is cleared: the cache would record
  /// from simulation threads outside the service's metrics mutex, and
  /// its integrity counters are served from CacheStats anyway.
  exec::ResultCache::Options cache;
  /// Warm-start the memory tier from the disk store at construction.
  bool preload = false;
  /// Worker threads per miss batch (exec::SweepOptions::jobs).
  int jobs = 0;
  /// Forwarded to exec::SweepOptions::engine_threads (0 or 1).
  int engine_threads = 0;
  /// Extra attempts for transiently-failing points
  /// (SupervisorOptions::max_attempts = 1 + retries).
  int retries = 0;
  AdmissionGate::Options admission;
  /// Constant backpressure hint in rejected responses.
  int retry_after_ms = 250;
  /// Record wall-domain latency histograms (serve.* metrics).
  bool wall_profile = false;
};

class Service {
 public:
  explicit Service(ServiceOptions options);

  /// One request line in, one response line out (no trailing newline).
  /// Never throws: failures become error/rejected responses.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// True once a shutdown request has been answered; the daemon's accept
  /// loop watches this.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Exact number of simulations executed since construction: total
  /// cache misses minus the service's own pre-claim probes.  The dedup
  /// invariant under test: N concurrent identical queries leave this at
  /// one batch's worth.
  [[nodiscard]] std::uint64_t simulations() const;

  [[nodiscard]] exec::ResultCache& cache() { return cache_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] AdmissionGate::Stats admission_stats() const {
    return gate_.stats();
  }
  [[nodiscard]] exec::InflightTable::Stats inflight_stats() const {
    return inflight_.stats();
  }

 private:
  /// Run one query's point list to completion through the dedup table,
  /// the admission gate and the supervised runner.  Results in request
  /// order.  Throws RejectedError on backpressure, std::runtime_error on
  /// simulation/validation failure.
  std::vector<cluster::RunResult> run_points(
      const Request& request, const std::vector<exec::SweepPoint>& points);

  /// The lazily-built runner for one (cluster, topology) configuration
  /// — the request's canonical topology spec is part of the map key, so
  /// routed and flat queries never share a runner.
  const exec::SweepRunner& runner_for(const Request& request);

  [[nodiscard]] std::string handle_request(const Request& request);
  [[nodiscard]] std::string stats_response();

  ServiceOptions options_;
  exec::ResultCache cache_;
  exec::InflightTable inflight_;
  AdmissionGate gate_;
  std::atomic<bool> shutdown_{false};

  std::mutex runners_mutex_;
  std::map<std::string, std::unique_ptr<exec::SweepRunner>> runners_;

  std::atomic<std::uint64_t> outer_hits_{0};
  std::atomic<std::uint64_t> outer_misses_{0};

  /// MetricsRegistry is not thread-safe; all access goes through
  /// metrics_mutex_.  Wall domain only — the service has no sim-domain
  /// state of its own.
  std::mutex metrics_mutex_;
  obs::MetricsRegistry metrics_;
};

}  // namespace gearsim::serve
