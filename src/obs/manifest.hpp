// Run manifests: one canonical JSON document per run/sweep/bench.
//
// A manifest is the machine-readable record of *what ran and what was
// observed*: identity strings (cluster-config signature, workload
// signature, cache-key format version), the metrics snapshot, and
// wall-clock timings.  The document separates the deterministic core
// (info + sim-domain metrics: bit-identical across reruns and
// GEARSIM_SWEEP_JOBS values) from the wall-clock section (timings,
// kWall metrics: honest but machine-dependent), so CI can diff the core
// and archive the rest.  Emission is canonical — sorted keys, round-trip
// doubles — making `deterministic_json()` a usable fingerprint.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace gearsim::obs {

struct RunManifest {
  /// Schema identifier, bumped when the document layout changes.
  static constexpr std::string_view kSchema = "gearsim-manifest/1";

  /// What produced this manifest ("gearsim sweep", "bench/fig1", ...).
  std::string tool;
  /// exec::kKeyFormatVersion of the producing build (0 = no cache layer
  /// involved).  Lets a reader spot manifests from incompatible caches.
  int cache_key_format = 0;
  /// Deterministic identity/config pairs (config signature, workload,
  /// nodes, seeds, job count...).  Keys are emitted sorted; duplicate
  /// keys are rejected on emission.
  std::vector<std::pair<std::string, std::string>> info;
  /// The metrics snapshot (both domains; serialization splits them).
  MetricsSnapshot metrics;
  /// End-to-end wall-clock duration in seconds; negative = not recorded.
  /// Lives in the wall section — never part of the deterministic core.
  double wall_seconds = -1.0;

  void add_info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }

  /// The full canonical document.
  [[nodiscard]] std::string to_json() const;
  /// Only the deterministic core (schema, tool, cache-key format, info,
  /// sim-domain metrics) — the reproducibility fingerprint.
  [[nodiscard]] std::string deterministic_json() const;
  /// Inverse of to_json(); throws ContractError on malformed input.
  static RunManifest from_json(std::string_view text);
};

/// Write `manifest.to_json()` to `path` (parent directories created),
/// trailing newline included.  Throws SimulationError on I/O failure.
void write_manifest_file(const RunManifest& manifest, const std::string& path);

}  // namespace gearsim::obs
