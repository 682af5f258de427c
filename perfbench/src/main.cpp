// perfbench: the gearsim benchmark program.
//
//   perfbench --workload <paper_curves|served_mix>
//             --seed N --seconds S --trace 0|1 [--t0-ns NS] [--out DIR]
//
// Pins itself to one CPU, runs whole passes (or served rounds) of the
// workload until about S seconds of measurement are done, checks every
// output, and prints one JSON object as the last line of stdout: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A traced run also writes its spans and registry snapshot to
// DIR/trace-<workload>-<seed>.json.  See perfbench/README.md.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/config.hpp"
#include "cluster/experiment.hpp"
#include "exec/cache_key.hpp"
#include "exec/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "rng.hpp"
#include "served.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "workloads/registry.hpp"

namespace {

using gearsim::cluster::ClusterConfig;
using gearsim::cluster::RunResult;
using perfbench::Clock;
using perfbench::median;
using perfbench::percentile;
using perfbench::now_ns;
using perfbench::Samples;
using perfbench::Spans;

/// Rig sampling error allowed between the multimeters' trapezoid integral
/// and the exact energy (see README.md, "Output checks").
constexpr double kMeteredEnergyTolerance = 5e-3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t t0_ns = 0;
  std::string out = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.t0_ns = now_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--t0-ns") {
      a.t0_ns = std::stoll(value);
    } else if (flag == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Pins the process to the highest-numbered CPU it may run on (CPU 0
/// usually takes most device interrupts).  Called before any thread
/// exists, so every rank thread, daemon thread and the client inherit the
/// one-CPU mask (see README.md, "Why each run is pinned").
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Peak resident set of this address space (VmHWM).  Unlike
/// getrusage's ru_maxrss, it starts afresh at exec, so the launcher's own
/// peak does not count.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void check(const std::string& error) {
    if (!error.empty()) errors.push_back(error);
  }
  void print() const {
    for (const std::string& e : errors) std::cerr << "check failed: " << e << "\n";
    for (const Metric& m : metrics) {
      std::cout << m.name << " " << gearsim::json::jnum(m.value) << " " << m.unit
                << "\n";
    }
    std::string out = "{\"correct\": ";
    out += errors.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += gearsim::json::jstr(metrics[i].name) + ": {\"value\": " +
             gearsim::json::jnum(metrics[i].value) +
             ", \"unit\": " + gearsim::json::jstr(metrics[i].unit) + "}";
    }
    std::cout << out << "}}" << std::endl;
  }
};

/// Per-layer timings in microseconds, from probe or round samples.
void add_us(Report& report, const Samples& samples, const char* sample,
            const char* metric) {
  const auto it = samples.find(sample);
  report.add(metric, it == samples.end() ? 0.0 : 1e6 * median(it->second),
             "us");
}

void write_trace(const Args& args, const Spans& spans,
                 const gearsim::obs::MetricsSnapshot& registry,
                 const Report& report) {
  std::filesystem::create_directories(args.out);
  const std::string path = args.out + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  out << "{\"workload\":" << gearsim::json::jstr(args.workload)
      << ",\"seed\":" << args.seed << ",\"spans\":[";
  const auto& all = spans.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"name\":" << gearsim::json::jstr(all[i].name)
        << ",\"start_ns\":" << all[i].start_ns - args.t0_ns
        << ",\"end_ns\":" << all[i].end_ns - args.t0_ns
        << ",\"parent\":" << all[i].parent << "}";
  }
  out << "],\"registry\":" << registry.to_json() << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    if (i > 0) out << ',';
    out << gearsim::json::jstr(report.metrics[i].name) << ":"
        << gearsim::json::jnum(report.metrics[i].value);
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::uint64_t counter(const gearsim::obs::MetricsSnapshot& snap,
                      const char* name) {
  const auto it = snap.metrics.find(name);
  return it == snap.metrics.end() ? 0 : it->second.count;
}

double gauge(const gearsim::obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.metrics.find(name);
  return it == snap.metrics.end() ? 0.0 : it->second.value;
}

/// sim, mpi and net counts of one pass or round, from the registry.
void add_registry_layers(Report& report,
                         const gearsim::obs::MetricsSnapshot& snap,
                         double units, double host_seconds) {
  const double events =
      static_cast<double>(counter(snap, "sim.engine.events_dispatched")) / units;
  report.add("sim.events", events, "count");
  report.add("sim.processes",
             static_cast<double>(counter(snap, "sim.engine.processes_spawned")) /
                 units,
             "count");
  report.add("sim.queue_high_water", gauge(snap, "sim.engine.queue_high_water"),
             "count");
  report.add("sim.host_ns_per_event",
             events > 0.0 ? 1e9 * host_seconds / events : 0.0, "ns");
  report.add("mpi.calls",
             static_cast<double>(counter(snap, "cluster.mpi_calls")) / units,
             "count");
  report.add("net.messages",
             static_cast<double>(counter(snap, "net.messages")) / units,
             "count");
  report.add("net.bytes",
             static_cast<double>(counter(snap, "net.bytes")) / units, "bytes");
}

void add_serve_layers(Report& report, const Samples& samples,
                      double request_hit_s, double simulations) {
  const auto handle = samples.find("serve.handle_line");
  const double handle_s =
      handle == samples.end() ? 0.0 : median(handle->second);
  add_us(report, samples, "serve.parse_request", "serve.parse_request_us");
  report.add("serve.handle_hit_us", 1e6 * handle_s, "us");
  report.add("serve.request_hit_us", 1e6 * request_hit_s, "us");
  report.add("serve.connection_us", 1e6 * (request_hit_s - handle_s), "us");
  report.add("serve.simulations", simulations, "count");
}

void add_probe_layers(Report& report, const Samples& samples) {
  add_us(report, samples, "exec.key", "exec.key_us");
  add_us(report, samples, "exec.to_json", "exec.to_json_us");
  add_us(report, samples, "exec.from_json", "exec.from_json_us");
  add_us(report, samples, "exec.insert", "exec.insert_us");
  add_us(report, samples, "exec.lookup_mem", "exec.lookup_mem_us");
  add_us(report, samples, "exec.lookup_disk", "exec.lookup_disk_us");
  add_us(report, samples, "json.parse", "json.parse_us");
  add_us(report, samples, "json.render", "json.render_us");
  add_us(report, samples, "model.curve", "model.curve_us");
}

/// Each operation's fastest time over the run's untraced passes.  Every
/// pass (or served round) repeats the same operations, and the shared
/// host's slow episodes (up to 3x, lasting from a fraction of a second to
/// over a minute) only ever add time, so an operation's fastest time
/// tracks the program while any per-pass figure moves with the host.
std::vector<double> fastest(const std::vector<std::vector<double>>& times) {
  std::vector<double> best;
  for (const std::vector<double>& t : times) {
    best.push_back(*std::min_element(t.begin(), t.end()));
  }
  return best;
}

/// The end-to-end metrics every workload reports, from each operation's
/// fastest time (see fastest).  An operation is one simulated point
/// (paper_curves) or one served query (served_mix); a pass
/// is the sum over one pass's or round's operations.
void add_end_to_end(Report& report, double setup_s,
                    const std::vector<double>& best,
                    const std::vector<double>& best_misses) {
  double pass_s = 0.0;
  for (double s : best) pass_s += s;
  report.add("setup_s", setup_s, "s");
  report.add("pass_s", pass_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("latency_p50_ms", 1e3 * median(best), "ms");
  report.add("miss_p50_ms", 1e3 * median(best_misses), "ms");
  report.add("queries_per_s", static_cast<double>(best.size()) / pass_s, "1/s");
}

std::string work_path(const Args& args, const std::string& what) {
  return args.out + "/" + what + "-" + std::to_string(::getpid());
}

// ---- paper_curves -----------------------------------------------------------

struct PassPoint {
  const gearsim::cluster::Workload* workload = nullptr;
  int nodes = 1;
  std::size_t gear = 0;
};

struct PassWorkload {
  ClusterConfig config;
  std::vector<std::unique_ptr<gearsim::cluster::Workload>> workloads;
  std::vector<PassPoint> points;
  std::vector<std::vector<std::size_t>> curves;  ///< Point indices by gear.

  void add_curve(const std::string& workload, int nodes) {
    workloads.push_back(gearsim::workloads::make_workload(workload));
    curves.emplace_back();
    for (std::size_t g = 0; g < config.gears.size(); ++g) {
      curves.back().push_back(points.size());
      points.push_back(PassPoint{workloads.back().get(), nodes, g});
    }
  }
};

PassWorkload paper_curves() {
  PassWorkload w;
  w.config = gearsim::cluster::athlon_cluster();
  w.config.sample_power = true;
  for (const char* name : {"EP", "CG", "MG", "LU", "Jacobi"}) w.add_curve(name, 8);
  for (const char* name : {"BT", "SP"}) w.add_curve(name, 9);
  return w;
}

struct Pass {
  std::vector<std::optional<RunResult>> results;
  std::vector<double> point_s;
  double seconds = 0.0;
};

/// One pass visits every point once, in `order`; results and times are
/// stored by point index.
Pass run_pass(const PassWorkload& w, const gearsim::exec::SweepRunner& runner,
              const std::vector<std::size_t>& order, Spans& spans) {
  Pass pass;
  pass.results.resize(w.points.size());
  pass.point_s.resize(w.points.size());
  const Spans::Scope scope(spans, "pass");
  const std::int64_t start = now_ns();
  for (const std::size_t i : order) {
    const PassPoint& p = w.points[i];
    const std::int64_t point_start = now_ns();
    try {
      pass.results[i] = runner.run(
          {gearsim::exec::SweepPoint{p.workload, p.nodes, p.gear, 0}})[0];
    } catch (const std::exception& e) {
      std::cerr << "point failed: " << e.what() << "\n";
    }
    const std::int64_t point_end = now_ns();
    spans.record("cluster.point", point_start, point_end);
    pass.point_s[i] = 1e-9 * static_cast<double>(point_end - point_start);
  }
  pass.seconds = seconds_since(start);
  return pass;
}

void check_pass(const PassWorkload& w, const Pass& pass, const Pass* first,
                Report& report) {
  const gearsim::cpu::PowerModel power(w.config.power, w.config.gears);
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const std::optional<RunResult>& r = pass.results[i];
    if (!r) continue;
    report.check(perfbench::check_energy_bound(*r, power));
    report.check(perfbench::check_metered_energy(*r, kMeteredEnergyTolerance));
    if (first != nullptr && first->results[i]) {
      report.check(perfbench::check_same_run(*first->results[i], *r));
    }
  }
  for (const std::vector<std::size_t>& curve : w.curves) {
    std::vector<RunResult> runs;
    for (std::size_t i : curve) {
      if (pass.results[i]) runs.push_back(*pass.results[i]);
    }
    if (runs.size() == curve.size()) {
      report.check(perfbench::check_slowdown(runs, w.config.gears));
    }
  }
}

void run_passes(const Args& args, const PassWorkload& w, Report& report,
                Spans& spans) {
  namespace exec = gearsim::exec;
  gearsim::obs::MetricsRegistry registry;
  exec::SweepOptions options;
  options.jobs = 1;
  options.engine_threads = 1;
  const exec::SweepRunner plain(w.config, options);
  options.metrics = &registry;
  const exec::SweepRunner traced(w.config, options);
  // The seed picks the order in which every pass visits the points.  The
  // points themselves are the paper's (repetition 0), so each check's
  // tolerance was validated on exactly these runs.
  std::vector<std::size_t> order(w.points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  perfbench::Rng(args.seed).shuffle(order);
  Spans off(false);

  const double setup_s = seconds_since(args.t0_ns);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> point_s;
  std::vector<std::vector<double>> point_times(w.points.size());
  Pass first;
  const std::int64_t begin = now_ns();
  for (int n = 0;; ++n) {
    const bool is_traced = args.trace && n % 2 == 1;
    Pass pass = run_pass(w, is_traced ? traced : plain, order,
                         is_traced ? spans : off);
    report.attempted += pass.results.size();
    report.failed += static_cast<std::uint64_t>(
        std::count(pass.results.begin(), pass.results.end(), std::nullopt));
    check_pass(w, pass, n == 0 ? nullptr : &first, report);
    (is_traced ? traced_s : untraced_s).push_back(pass.seconds);
    if (!is_traced) {
      point_s.insert(point_s.end(), pass.point_s.begin(), pass.point_s.end());
      for (std::size_t i = 0; i < w.points.size(); ++i) {
        point_times[i].push_back(pass.point_s[i]);
      }
      std::cerr << "pass " << n << ": " << pass.seconds << " s\n";
    }
    const double last = pass.seconds;
    if (n == 0) first = std::move(pass);
    if (n >= 1 && seconds_since(begin) + last > args.seconds) break;
  }

  if (!args.trace) {
    // Every operation here simulates a point: each is a miss.
    const std::vector<double> best = fastest(point_times);
    add_end_to_end(report, setup_s, best, best);
    return;
  }

  const gearsim::obs::MetricsSnapshot snap = registry.snapshot();
  add_registry_layers(report, snap, static_cast<double>(traced_s.size()),
                      median(untraced_s));
  report.add("cluster.point_s", median(point_s), "s");

  // Of the probed layers only model works on this workload; exec, util
  // JSON and serve do none, so their metrics read 0 (README.md).
  Samples samples;
  std::vector<std::vector<RunResult>> curves;
  for (const std::vector<std::size_t>& curve : w.curves) {
    curves.emplace_back();
    for (std::size_t i : curve) {
      if (first.results[i]) curves.back().push_back(*first.results[i]);
    }
  }
  perfbench::probe_model(curves, spans, samples);
  add_probe_layers(report, samples);
  report.add("exec.cache_hits", 0.0, "count");
  report.add("exec.cache_disk_hits", 0.0, "count");
  report.add("exec.cache_misses", 0.0, "count");
  add_serve_layers(report, samples, 0.0, 0.0);
  report.add("serve.hit_p50_ms", 0.0, "ms");
  report.add("serve.hit_p99_ms", 0.0, "ms");
  report.add("serve.disk_hit_p50_ms", 0.0, "ms");
  report.add("tracing_overhead_s", median(traced_s) - median(untraced_s), "s");
  write_trace(args, spans, snap, report);
}

// ---- served_mix -------------------------------------------------------------

void run_served(const Args& args, Report& report, Spans& spans) {
  using perfbench::Served;
  const perfbench::Mix mix = perfbench::make_mix(args.seed);
  const std::vector<const perfbench::Query*> order = perfbench::round_order(mix);
  const std::string socket = work_path(args, "served") + ".sock";
  Spans off(false);
  gearsim::obs::MetricsRegistry registry;
  std::optional<perfbench::Reference> ref;

  double setup_s = 0.0;
  // Each query's time in every untraced round (see fastest), and each
  // untraced round's class breakdown for the traced run.
  std::vector<std::vector<double>> query_times(order.size());
  std::vector<double> hit_p50, hit_p99, disk_p50, miss_p50, qps;
  std::vector<double> untraced_s, traced_s;
  std::vector<std::uint64_t> first_hashes;
  std::optional<perfbench::Round> traced_round;
  const std::int64_t begin = now_ns();
  for (int n = 0;; ++n) {
    const std::int64_t round_start = now_ns();
    const bool is_traced = args.trace && n % 2 == 1;
    const std::string store = work_path(args, "served-store");
    std::filesystem::remove_all(store);
    perfbench::Round round = perfbench::run_round(
        mix, perfbench::RoundOptions{store, socket, is_traced},
        is_traced ? spans : off);
    std::filesystem::remove_all(store);
    if (n == 0) {
      setup_s = 1e-9 * static_cast<double>(round.ready_ns - args.t0_ns) +
                round.restart_s;
      ref = perfbench::reference_runs(mix, args.trace ? &registry : nullptr);
      const ClusterConfig athlon = gearsim::cluster::athlon_cluster();
      const gearsim::cpu::PowerModel power(athlon.power, athlon.gears);
      for (const RunResult& r : ref->results) {
        report.check(perfbench::check_energy_bound(r, power));
      }
    }
    report.attempted += round.responses.size();
    report.failed += round.failed;
    for (const std::string& e : perfbench::check_round(mix, round, *ref)) {
      report.check(e);
    }
    // Determinism: every round answers every query with the same bytes.
    for (std::size_t i = 0; i < round.responses.size(); ++i) {
      const std::uint64_t h = gearsim::exec::fnv1a(round.responses[i]);
      if (n == 0) {
        first_hashes.push_back(h);
      } else if (h != first_hashes[i]) {
        report.check("determinism: round " + std::to_string(n) +
                     " answered differently to " + order[i]->line);
      }
    }
    (is_traced ? traced_s : untraced_s).push_back(round.query_s);
    if (!is_traced) {
      std::vector<double> memory_ms, disk_ms, miss_ms;
      for (std::size_t i = 0; i < order.size(); ++i) {
        query_times[i].push_back(round.latency_s[i]);
        const double ms = 1e3 * round.latency_s[i];
        switch (order[i]->expected) {
          case Served::kMemory: memory_ms.push_back(ms); break;
          case Served::kDisk: disk_ms.push_back(ms); break;
          case Served::kMiss: miss_ms.push_back(ms); break;
        }
      }
      hit_p50.push_back(median(memory_ms));
      hit_p99.push_back(percentile(memory_ms, 0.99));
      disk_p50.push_back(median(disk_ms));
      miss_p50.push_back(median(miss_ms));
      qps.push_back(static_cast<double>(round.responses.size()) / round.query_s);
      std::cerr << "round " << n << ": hit_p50 " << hit_p50.back()
                << " ms, hit_p99 " << hit_p99.back() << " ms, disk_p50 "
                << disk_p50.back() << " ms, miss_p50 " << miss_p50.back()
                << " ms, " << qps.back() << " queries/s\n";
    }
    if (is_traced && !traced_round) traced_round = std::move(round);
    const double last = seconds_since(round_start);
    if (n >= 1 && seconds_since(begin) + last > args.seconds) break;
  }

  if (!args.trace) {
    const std::vector<double> best = fastest(query_times);
    std::vector<double> best_misses;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i]->expected == Served::kMiss) best_misses.push_back(best[i]);
    }
    add_end_to_end(report, setup_s, best, best_misses);
    return;
  }

  const gearsim::obs::MetricsSnapshot snap = registry.snapshot();
  double ref_s = 0.0;
  for (double s : ref->seconds) ref_s += s;
  add_registry_layers(report, snap, 1.0, ref_s);
  report.add("cluster.point_s", median(ref->seconds), "s");

  Samples samples;
  samples["serve.parse_request"] = traced_round->parse_request_s;
  samples["serve.handle_line"] = traced_round->handle_hit_s;
  std::vector<double> request_hit_s;
  std::vector<perfbench::ProbeItem> items;
  std::vector<std::vector<RunResult>> curves;
  std::vector<std::string> responses;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i]->expected == Served::kMemory) {
      request_hit_s.push_back(traced_round->latency_s[i]);
    }
    if (order[i]->sweep && i < mix.first.size() &&
        order[i]->expected == Served::kMiss) {
      responses.push_back(traced_round->responses[i]);
      curves.emplace_back();
      for (std::size_t p : order[i]->points) curves.back().push_back(ref->results[p]);
    }
  }
  std::vector<std::unique_ptr<gearsim::cluster::Workload>> workloads;
  const ClusterConfig athlon = gearsim::cluster::athlon_cluster();
  for (std::size_t p = 0; p < mix.points.size(); ++p) {
    workloads.push_back(gearsim::workloads::make_workload(mix.points[p].workload));
    items.push_back(perfbench::ProbeItem{&athlon, workloads.back().get(),
                                         mix.points[p].nodes, mix.points[p].gear,
                                         mix.points[p].rep, &ref->results[p]});
  }
  perfbench::probe_exec(items, work_path(args, "probe-exec"), spans, samples);
  perfbench::probe_json(responses, spans, samples);
  perfbench::probe_model(curves, spans, samples);
  std::filesystem::remove_all(work_path(args, "probe-exec"));

  add_probe_layers(report, samples);
  const gearsim::exec::CacheStats& a = traced_round->first_stats;
  const gearsim::exec::CacheStats& b = traced_round->second_stats;
  report.add("exec.cache_hits",
             static_cast<double>(a.hits + b.hits - traced_round->probe_lookups),
             "count");
  report.add("exec.cache_disk_hits", static_cast<double>(a.disk_hits + b.disk_hits),
             "count");
  report.add("exec.cache_misses", static_cast<double>(a.misses + b.misses),
             "count");
  add_serve_layers(report, samples, median(request_hit_s),
                   static_cast<double>(
                       traced_round->observed.first_phase_simulations +
                       traced_round->observed.second_phase_simulations));
  report.add("serve.hit_p50_ms", median(hit_p50), "ms");
  report.add("serve.hit_p99_ms", median(hit_p99), "ms");
  report.add("serve.disk_hit_p50_ms", median(disk_p50), "ms");
  report.add("tracing_overhead_s", median(traced_s) - median(untraced_s), "s");
  write_trace(args, spans, snap, report);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    pin_to_one_cpu();
    std::filesystem::create_directories(args.out);
    Report report;
    Spans spans(args.trace);
    if (args.workload == "paper_curves") {
      run_passes(args, paper_curves(), report, spans);
    } else if (args.workload == "served_mix") {
      run_served(args, report, spans);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload +
                                  "' (paper_curves, served_mix)");
    }
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
