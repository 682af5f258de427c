#include "served.hpp"

#include <map>
#include <set>
#include <utility>

#include "cluster/config.hpp"
#include "cluster/experiment.hpp"
#include "exec/result_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "workloads/registry.hpp"
#include "rng.hpp"

namespace perfbench {

namespace {

namespace serve = gearsim::serve;

constexpr const char* kWorkloads[] = {"EP", "CG", "MG", "LU", "Jacobi"};
constexpr int kMaxNodes = 8;
/// Node count of every sweep.  Fixed, not seeded: a sweep simulates six
/// points, so a seeded node count would let the seed alone move the miss
/// and throughput figures.
constexpr int kSweepNodes = 4;
constexpr int kGears = 6;
constexpr int kReps = 8;
/// Enough for over 1,000 memory hits per round, so a round's p99 has at
/// least ten samples beyond it.
constexpr std::size_t kSecondPhaseQueries = 1100;

struct Fresh {
  serve::Request request;
  std::vector<Point> points;
};

std::size_t point_index(Mix& mix, std::map<Point, std::size_t>& index,
                        const Point& p) {
  auto [it, inserted] = index.emplace(p, mix.points.size());
  if (inserted) mix.points.push_back(p);
  return it->second;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::unique_ptr<serve::Service> make_service(const std::string& store) {
  serve::ServiceOptions options;
  options.cache.disk_dir = store;
  options.cache.shard_digits = 2;
  options.preload = false;
  options.jobs = 1;
  options.engine_threads = 1;
  return std::make_unique<serve::Service>(std::move(options));
}

}  // namespace

Mix make_mix(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fresh> fresh;
  for (const char* w : kWorkloads) {
    for (int n = 1; n <= kMaxNodes; ++n) {
      Fresh f;
      f.request.type = "run";
      f.request.workload = w;
      f.request.nodes = n;
      f.request.gear = 1 + static_cast<int>(rng.below(kGears));
      f.request.rep = static_cast<int>(rng.below(kReps));
      f.points.push_back(Point{w, n,
                               static_cast<std::size_t>(f.request.gear - 1),
                               f.request.rep});
      fresh.push_back(std::move(f));
    }
  }
  for (const char* w : kWorkloads) {
    Fresh f;
    f.request.type = "sweep";
    f.request.workload = w;
    f.request.nodes = kSweepNodes;
    f.request.repeat = 1;
    for (int g = 0; g < kGears; ++g) {
      f.points.push_back(
          Point{w, f.request.nodes, static_cast<std::size_t>(g), 0});
    }
    fresh.push_back(std::move(f));
  }
  rng.shuffle(fresh);

  Mix mix;
  std::map<Point, std::size_t> index;
  auto make_query = [&](const Fresh& f) {
    Query q;
    q.line = serve::render_request(f.request);
    q.sweep = f.request.type == "sweep";
    for (const Point& p : f.points) q.points.push_back(point_index(mix, index, p));
    return q;
  };
  std::vector<Query> distinct;
  for (const Fresh& f : fresh) {
    distinct.push_back(make_query(f));
    mix.first.push_back(distinct.back());
    mix.first.push_back(mix.first[rng.below(mix.first.size())]);
  }
  for (std::size_t i = 0; i < kSecondPhaseQueries; ++i) {
    mix.second.push_back(distinct[rng.below(distinct.size())]);
  }

  // Predict where each query is answered from.  The memory tier (4096
  // entries) holds every point of a round, so nothing is evicted.
  std::set<std::size_t> memory;
  for (Query& q : mix.first) {
    bool all = true;
    for (std::size_t p : q.points) all = all && memory.count(p) > 0;
    q.expected = all ? Served::kMemory : Served::kMiss;
    memory.insert(q.points.begin(), q.points.end());
  }
  const std::set<std::size_t> disk = std::move(memory);
  memory.clear();
  for (Query& q : mix.second) {
    bool in_memory = true;
    bool stored = true;
    for (std::size_t p : q.points) {
      in_memory = in_memory && memory.count(p) > 0;
      stored = stored && disk.count(p) > 0;
      if (memory.insert(p).second && disk.count(p) > 0) {
        ++mix.expected.second_phase_disk_hits;
      }
    }
    q.expected = in_memory ? Served::kMemory
                 : stored  ? Served::kDisk
                           : Served::kMiss;
  }
  mix.expected.first_phase_simulations = disk.size();
  return mix;
}

std::vector<const Query*> round_order(const Mix& mix) {
  std::vector<const Query*> order;
  for (const Query& q : mix.first) order.push_back(&q);
  for (const Query& q : mix.second) order.push_back(&q);
  return order;
}

Round run_round(const Mix& mix, const RoundOptions& options, Spans& spans) {
  Round round;
  const Spans::Scope round_span(spans, "served.round");
  std::unique_ptr<serve::Service> service = make_service(options.store_dir);
  auto daemon = std::make_unique<serve::Daemon>(
      *service, serve::Daemon::Options{options.socket_path});
  daemon->start();
  round.ready_ns = now_ns();
  const serve::Client client(options.socket_path);

  auto ask = [&](const Query& q) {
    const Spans::Scope query_span(spans, q.expected == Served::kMemory ? "serve.query.memory"
                                         : q.expected == Served::kDisk ? "serve.query.disk"
                                                                       : "serve.query.miss");
    std::string response;
    const auto start = Clock::now();
    try {
      response = client.request(q.line);
    } catch (const std::exception&) {
      response.clear();
    }
    round.latency_s.push_back(since(start));
    if (response.find("\"status\":\"ok\"") == std::string::npos) {
      ++round.failed;
    }
    round.responses.push_back(std::move(response));
    if (options.traced && q.expected == Served::kMemory) {
      std::int64_t t0 = now_ns();
      static_cast<void>(serve::parse_request(q.line));
      std::int64_t t1 = now_ns();
      spans.record("serve.parse_request", t0, t1);
      round.parse_request_s.push_back(1e-9 * static_cast<double>(t1 - t0));
      t0 = now_ns();
      static_cast<void>(service->handle_line(q.line));
      t1 = now_ns();
      spans.record("serve.handle_line", t0, t1);
      round.handle_hit_s.push_back(1e-9 * static_cast<double>(t1 - t0));
      round.probe_lookups += q.points.size();
    }
  };

  auto phase_start = Clock::now();
  {
    const Spans::Scope phase(spans, "served.first_phase");
    for (const Query& q : mix.first) ask(q);
  }
  round.query_s = since(phase_start);
  round.observed.first_phase_simulations = service->simulations();
  round.observed.rejected = service->admission_stats().rejected;
  round.first_stats = service->cache().stats();

  {
    const Spans::Scope restart(spans, "served.restart");
    const auto start = Clock::now();
    daemon->stop();
    daemon.reset();
    service = make_service(options.store_dir);
    daemon = std::make_unique<serve::Daemon>(
        *service, serve::Daemon::Options{options.socket_path});
    daemon->start();
    round.restart_s = since(start);
  }

  phase_start = Clock::now();
  {
    const Spans::Scope phase(spans, "served.second_phase");
    for (const Query& q : mix.second) ask(q);
  }
  round.query_s += since(phase_start);
  round.observed.second_phase_simulations = service->simulations();
  round.observed.second_phase_disk_hits = service->cache().stats().disk_hits;
  round.observed.rejected += service->admission_stats().rejected;
  round.second_stats = service->cache().stats();
  daemon->stop();
  return round;
}

Reference reference_runs(const Mix& mix,
                         gearsim::obs::MetricsRegistry* metrics) {
  Reference ref;
  std::map<std::string, std::unique_ptr<gearsim::cluster::Workload>> workloads;
  const gearsim::cluster::ClusterConfig base = gearsim::cluster::athlon_cluster();
  for (const Point& p : mix.points) {
    auto& w = workloads[p.workload];
    if (!w) w = gearsim::workloads::make_workload(p.workload);
    gearsim::cluster::ClusterConfig config = base;
    config.seed = base.seed + static_cast<std::uint64_t>(p.rep);
    config.network.jitter_seed =
        base.network.jitter_seed + static_cast<std::uint64_t>(p.rep);
    gearsim::cluster::RunOptions run;
    run.gear_index = p.gear;
    run.metrics = metrics;
    run.engine_threads = 1;
    const auto start = Clock::now();
    ref.results.push_back(
        gearsim::cluster::ExperimentRunner(config).run(*w, p.nodes, run));
    ref.seconds.push_back(since(start));
    ref.json.push_back(gearsim::exec::to_json(ref.results.back()));
  }
  return ref;
}

std::vector<std::string> check_round(const Mix& mix, const Round& round,
                                     const Reference& ref) {
  std::vector<std::string> errors;
  const std::vector<const Query*> order = round_order(mix);
  for (std::size_t i = 0; i < order.size() && i < round.responses.size(); ++i) {
    const std::string& response = round.responses[i];
    if (response.find("\"status\":\"ok\"") == std::string::npos) continue;
    std::vector<std::string> expected;
    for (std::size_t p : order[i]->points) expected.push_back(ref.json[p]);
    std::string error = check_served_bytes(response, expected);
    if (!error.empty()) errors.push_back(error + " in " + order[i]->line);
  }
  std::string error = check_served_counts(mix.expected, round.observed);
  if (!error.empty()) errors.push_back(error);
  return errors;
}

}  // namespace perfbench
