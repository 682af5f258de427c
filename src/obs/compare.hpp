// Benchmark-regression comparison: result documents vs blessed baselines.
//
// Every bench/* target emits one BENCH_<name>.json through bench/harness
// (schema kBenchSchema below); bench/baselines/<name>.json holds the
// blessed values *with per-metric tolerances in the file itself*, so a
// baseline is self-describing and the CI gate needs no side-channel
// configuration.  compare_bench() checks every baselined metric:
//
//   * direction "both" — |actual - value| must fit tol_abs + tol_rel*|value|
//   * direction "max"  — actual <= value + tolerance (lower is better:
//     times, energies; an improvement never fails the gate)
//   * direction "min"  — actual >= value - tolerance (higher is better:
//     speedups, savings)
//
// A metric present in the baseline but missing from the result fails the
// gate (a silently-dropped measurement is itself a regression).  Result
// metrics without a baseline entry are reported as unchecked, never
// failed — adding a metric doesn't require re-blessing everything else.
// Wall-clock numbers live under the result's "wall" section, which is
// never compared: the gate only sees deterministic sim-domain metrics.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gearsim::obs {

/// Schema tag of the common BENCH_<name>.json result document.
inline constexpr std::string_view kBenchSchema = "gearsim-bench/1";
/// Schema tag of the committed baseline documents.
inline constexpr std::string_view kBaselineSchema = "gearsim-bench-baseline/1";

struct MetricCheck {
  std::string name;
  double baseline = 0.0;
  double actual = 0.0;
  bool present = false;  ///< The result document had this metric.
  bool ok = false;
  std::string detail;    ///< Human-readable verdict for the CI log.
};

struct CompareReport {
  std::string bench;
  std::vector<MetricCheck> checks;
  /// Result metrics with no baseline entry (informational only).
  std::vector<std::string> unchecked;

  [[nodiscard]] bool ok() const {
    for (const MetricCheck& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

/// Compare one result document against its baseline.  Throws
/// ContractError on malformed documents or mismatched bench names.
[[nodiscard]] CompareReport compare_bench(std::string_view baseline_json,
                                          std::string_view result_json);

/// Render a report as an aligned text table (one line per check).
[[nodiscard]] std::string render_report(const CompareReport& report);

/// Bless: derive a baseline document from a result document.  A metric
/// already in `previous_baseline` (the baseline being replaced; empty if
/// none) keeps its tol_rel, tol_abs and direction, so re-blessing never
/// loosens an exact gate; a new metric gets direction "both", the given
/// relative tolerance and a tiny absolute floor for values near zero.
/// Metrics missing from the result are dropped.  The caller overwrites
/// the old file — blessing is an explicit, reviewed act.
[[nodiscard]] std::string baseline_from_result(
    std::string_view result_json, double tol_rel,
    std::string_view previous_baseline = {});

}  // namespace gearsim::obs
