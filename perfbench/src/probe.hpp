// Traced-run timings of single layer calls.  Each probe calls one
// layer's public functions on the workload's own points and results and
// records every call as a span plus a sample, in seconds, under the
// per-layer metric it feeds.  Probes run only in traced runs and after
// the measured passes, so they never touch an end-to-end metric.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/experiment.hpp"
#include "cluster/workload.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-call samples in seconds, by per-layer metric name.
using Samples = std::map<std::string, std::vector<double>>;

struct ProbeItem {
  const gearsim::cluster::ClusterConfig* config = nullptr;
  const gearsim::cluster::Workload* workload = nullptr;
  int nodes = 1;
  std::size_t gear = 0;
  int rep = 0;
  const gearsim::cluster::RunResult* result = nullptr;
};

/// exec: sweep_point_key, to_json, result_from_json, a disk-backed
/// ResultCache::insert and memory lookup, then a disk lookup from a
/// second cache over the same store.  `store_dir` must not exist yet.
void probe_exec(const std::vector<ProbeItem>& items,
                const std::string& store_dir, Spans& spans, Samples& out);

/// util JSON: json::parse and json::render of each sweep response.
void probe_json(const std::vector<std::string>& sweep_responses,
                Spans& spans, Samples& out);

/// model: curve_from_runs, pareto_frontier and min_energy_index of each
/// curve, timed together.
void probe_model(
    const std::vector<std::vector<gearsim::cluster::RunResult>>& curves,
    Spans& spans, Samples& out);

}  // namespace perfbench
