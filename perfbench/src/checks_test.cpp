// Tests of the benchmark's own output checks: each check passes on a
// correct input and fails on a deliberately wrong one.  Exit status is
// the number of failed expectations.  Run with
//   python3 perfbench/run.py --self-test
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/config.hpp"
#include "cluster/experiment.hpp"
#include "exec/result_io.hpp"
#include "serve/protocol.hpp"
#include "served.hpp"
#include "workloads/registry.hpp"

namespace {

using gearsim::cluster::RunResult;
using namespace perfbench;

int failures = 0;

void expect_pass(const std::string& error, const char* what) {
  if (!error.empty()) {
    ++failures;
    std::cerr << "FAIL " << what << ": unexpected error: " << error << "\n";
  } else {
    std::cout << "ok   " << what << "\n";
  }
}

void expect_fail(const std::string& error, const char* what) {
  if (error.empty()) {
    ++failures;
    std::cerr << "FAIL " << what << ": wrong input was accepted\n";
  } else {
    std::cout << "ok   " << what << " (" << error << ")\n";
  }
}

RunResult at_gear(std::size_t gear, double wall) {
  RunResult r;
  r.nodes = 8;
  r.gear_index = gear;
  r.gear_label = static_cast<int>(gear) + 1;
  r.wall = gearsim::seconds(wall);
  return r;
}

const gearsim::cluster::ClusterConfig& athlon() {
  static const gearsim::cluster::ClusterConfig config =
      gearsim::cluster::athlon_cluster();
  return config;
}

void slowdown_tests() {
  const gearsim::cpu::GearTable& gears = athlon().gears;
  // Gear 1 -> 2 on the athlon table is 2000 -> 1800 MHz: ratio 1.111.
  expect_pass(check_slowdown({at_gear(0, 100.0), at_gear(1, 105.0)}, gears),
              "slowdown: within the frequency ratio");
  expect_pass(check_slowdown({at_gear(0, 100.0), at_gear(1, 99.0)}, gears),
              "slowdown: a 1% inversion is tolerated");
  expect_fail(check_slowdown({at_gear(0, 100.0), at_gear(1, 112.0)}, gears),
              "slowdown: a gear pair over the frequency ratio");
  expect_fail(check_slowdown({at_gear(0, 100.0), at_gear(1, 98.0)}, gears),
              "slowdown: a 2% inversion");
  expect_fail(check_slowdown({at_gear(0, 100.0), at_gear(2, 105.0)}, gears),
              "slowdown: a curve with a gear missing");
}

void energy_tests() {
  const gearsim::cpu::PowerModel power(athlon().power, athlon().gears);
  RunResult r = at_gear(0, 10.0);
  const double idle = 8 * power.idle_power(0).value() * 10.0;
  const double active = 8 * power.active_power(0, 1.0).value() * 10.0;
  r.energy = gearsim::joules(0.5 * (idle + active));
  expect_pass(check_energy_bound(r, power), "energy bound: inside the envelope");
  r.energy = gearsim::joules(active * 1.01);
  expect_fail(check_energy_bound(r, power), "energy bound: above active power");
  r.energy = gearsim::joules(idle * 0.99);
  expect_fail(check_energy_bound(r, power), "energy bound: below idle power");

  r.energy = gearsim::joules(1000.0);
  expect_fail(check_metered_energy(r, 5e-3), "metered energy: no samples");
  r.sampled_energy = gearsim::joules(1001.0);
  expect_pass(check_metered_energy(r, 5e-3), "metered energy: 0.1% off");
  r.sampled_energy = gearsim::joules(1010.0);
  expect_fail(check_metered_energy(r, 5e-3), "metered energy: 1% off");
}

void determinism_tests() {
  RunResult a = at_gear(0, 10.0);
  a.event_order_hash = 7;
  a.mpi_calls = 100;
  RunResult b = a;
  expect_pass(check_same_run(a, b), "determinism: identical runs");
  b.event_order_hash = 8;
  expect_fail(check_same_run(a, b), "determinism: another dispatch order");
  b = a;
  b.mpi_calls = 101;
  expect_fail(check_same_run(a, b), "determinism: another call count");
}

void served_bytes_tests() {
  const auto workload = gearsim::workloads::make_workload("EP");
  const RunResult result =
      gearsim::cluster::ExperimentRunner(athlon()).run(*workload, 2, 0);
  gearsim::serve::Request request;
  request.type = "run";
  request.workload = "EP";
  request.nodes = 2;
  const std::string response = gearsim::serve::run_response(request, result);
  const std::vector<std::string> expected{gearsim::exec::to_json(result)};
  expect_pass(check_served_bytes(response, expected),
              "served bytes: the daemon's own rendering");

  std::string flipped = response;
  const std::size_t at = flipped.find("\"results\":[") + 40;
  flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
  expect_fail(check_served_bytes(flipped, expected),
              "served bytes: one flipped byte in a result");
  flipped = response;
  flipped[flipped.find("\"ok\"") + 1] = 'O';
  expect_fail(check_served_bytes(flipped, expected),
              "served bytes: a response that is not ok");
  expect_fail(check_served_bytes(response, {expected[0], expected[0]}),
              "served bytes: a result missing");
}

void served_counts_tests() {
  const Mix mix = make_mix(3);
  const std::string store = "perfbench-checks-store-" + std::to_string(::getpid());
  const std::string socket = store + ".sock";
  std::filesystem::remove_all(store);
  Spans spans(false);
  const Reference ref = reference_runs(mix, nullptr);

  const Round fresh = run_round(mix, RoundOptions{store, socket, false}, spans);
  const std::vector<std::string> errors = check_round(mix, fresh, ref);
  expect_pass(errors.empty() ? std::string() : errors.front(),
              "served round on a fresh store");
  expect_pass(check_served_counts(mix.expected, fresh.observed),
              "served counts on a fresh store");

  // The store is left over: the first phase's misses become disk hits.
  const Round stale = run_round(mix, RoundOptions{store, socket, false}, spans);
  expect_fail(check_served_counts(mix.expected, stale.observed),
              "served counts: a store left over from an earlier run");
  std::filesystem::remove_all(store);

  ServedCounts rejected = mix.expected;
  rejected.rejected = 1;
  expect_fail(check_served_counts(mix.expected, rejected),
              "served counts: a rejected response");
}

}  // namespace

int main() {
  slowdown_tests();
  energy_tests();
  determinism_tests();
  served_bytes_tests();
  served_counts_tests();
  std::cout << (failures == 0 ? "all checks behave\n" : "FAILURES\n");
  return failures;
}
