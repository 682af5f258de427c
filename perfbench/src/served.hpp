// The served_mix workload: a seeded query mix answered by an in-process
// serve::Daemon over a fresh sharded on-disk store, in two phases.
//
//  * First phase: one closed-loop serve::Client, no think time.  Every
//    other query is fresh, the rest repeat an earlier query, so about
//    half are memory hits and the fresh ones simulate and write the
//    store.
//  * Second phase: the daemon restarts without preload over the same
//    store and answers re-asked first-phase queries: a point's first
//    touch reads the disk, later touches hit memory, nothing simulates.
//
// The mix predicts, per query, whether the daemon should answer from
// memory, from disk or by simulating, and how many simulations and disk
// reads the round must do; the round reports what the daemon did.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/workload.hpp"
#include "exec/result_cache.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

/// One simulation point on the athlon preset (gear is 0-based).
struct Point {
  std::string workload;
  int nodes = 1;
  std::size_t gear = 0;
  int rep = 0;
  auto operator<=>(const Point&) const = default;
};

enum class Served { kMemory, kDisk, kMiss };

struct Query {
  std::string line;                 ///< Canonical request line.
  bool sweep = false;
  std::vector<std::size_t> points;  ///< Indices into Mix::points, in
                                    ///< response order.
  Served expected = Served::kMiss;  ///< Where the daemon should find it.
};

struct Mix {
  std::vector<Point> points;  ///< Distinct, in order of first use.
  std::vector<Query> first;
  std::vector<Query> second;
  ServedCounts expected;
};

/// Deterministic in the seed.  Fresh first-phase queries are one run
/// query per (workload, node count) plus one 6-gear sweep per workload,
/// shuffled; the order, gears, reps and repeats are seeded.
[[nodiscard]] Mix make_mix(std::uint64_t seed);

struct RoundOptions {
  std::string store_dir;    ///< Must not exist yet for a fresh round.
  std::string socket_path;
  bool traced = false;      ///< Also time Service::handle_line and
                            ///< parse_request on every memory hit.
};

struct Round {
  std::vector<std::string> responses;  ///< First phase, then second.
  std::vector<double> latency_s;       ///< Client::request, per query.
  std::vector<double> handle_hit_s;    ///< Traced rounds only.
  std::vector<double> parse_request_s; ///< Traced rounds only.
  std::int64_t ready_ns = 0;           ///< First daemon accepting.
  double restart_s = 0.0;              ///< Stop + start over the store.
  double query_s = 0.0;                ///< Both phases' query loops.
  std::uint64_t failed = 0;            ///< Responses that are not ok.
  /// Memory-hit lookups made by the traced handle_line calls (they count
  /// in the cache stats below but are not queries of the mix).
  std::uint64_t probe_lookups = 0;
  ServedCounts observed;
  gearsim::exec::CacheStats first_stats;
  gearsim::exec::CacheStats second_stats;
};

/// Runs both phases of `mix` against a fresh daemon on `options`.
[[nodiscard]] Round run_round(const Mix& mix, const RoundOptions& options,
                              Spans& spans);

/// Queries of the mix in round order (first phase, then second).
[[nodiscard]] std::vector<const Query*> round_order(const Mix& mix);

/// exec::to_json of an in-process ExperimentRunner::run of each point of
/// the mix (seeds shifted by rep, as repetitions are defined), computed
/// apart from the daemon and its cache.  `metrics`, when set, is attached
/// to every run; `seconds` receives each run's host time.
struct Reference {
  std::vector<gearsim::cluster::RunResult> results;
  std::vector<std::string> json;
  std::vector<double> seconds;
};
[[nodiscard]] Reference reference_runs(const Mix& mix,
                                       gearsim::obs::MetricsRegistry* metrics);

/// The served-bytes check of each ok response and the served counts.
[[nodiscard]] std::vector<std::string> check_round(const Mix& mix,
                                                   const Round& round,
                                                   const Reference& ref);

}  // namespace perfbench
