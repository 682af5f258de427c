#include "obs/compare.hpp"

#include <cmath>
#include <cstdio>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace gearsim::obs {

namespace {

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// The gate one baselined metric is checked against.  Absent fields
/// default to an exact, two-sided gate.
struct Gate {
  double tol_rel = 0.0;
  double tol_abs = 0.0;
  std::string direction = "both";
};

Gate parse_gate(const json::Object& spec, const std::string& name) {
  Gate gate;
  if (json::find(spec, "tol_rel")) {
    gate.tol_rel = json::field(spec, "tol_rel").as_double();
  }
  if (json::find(spec, "tol_abs")) {
    gate.tol_abs = json::field(spec, "tol_abs").as_double();
  }
  if (json::find(spec, "direction")) {
    gate.direction = json::field(spec, "direction").as_string();
  }
  GEARSIM_REQUIRE(gate.direction == "both" || gate.direction == "max" ||
                      gate.direction == "min",
                  "bad baseline direction for " + name + ": " +
                      gate.direction);
  GEARSIM_REQUIRE(gate.tol_rel >= 0.0 && gate.tol_abs >= 0.0,
                  "negative tolerance for " + name);
  return gate;
}

}  // namespace

CompareReport compare_bench(std::string_view baseline_json,
                            std::string_view result_json) {
  const json::Value base_root = json::parse(baseline_json);
  const json::Object& base = base_root.as_object();
  GEARSIM_REQUIRE(json::field(base, "schema").as_string() == kBaselineSchema,
                  "not a bench baseline document");
  const json::Value result_root = json::parse(result_json);
  const json::Object& result = result_root.as_object();
  GEARSIM_REQUIRE(json::field(result, "schema").as_string() == kBenchSchema,
                  "not a bench result document");

  CompareReport report;
  report.bench = json::field(base, "name").as_string();
  GEARSIM_REQUIRE(json::field(result, "name").as_string() == report.bench,
                  "baseline/result bench name mismatch: " + report.bench +
                      " vs " + json::field(result, "name").as_string());

  const json::Object& actual = json::field(result, "metrics").as_object();
  const json::Object& expected = json::field(base, "metrics").as_object();

  for (const auto& [name, spec_v] : expected) {
    const json::Object& spec = spec_v.as_object();
    MetricCheck check;
    check.name = name;
    check.baseline = json::field(spec, "value").as_double();
    const Gate gate = parse_gate(spec, name);

    const json::Value* got = json::find(actual, name);
    if (got == nullptr) {
      check.ok = false;
      check.detail = "MISSING from result";
      report.checks.push_back(std::move(check));
      continue;
    }
    check.present = true;
    check.actual = got->as_double();
    const double tol = gate.tol_abs + gate.tol_rel * std::abs(check.baseline);
    const std::string& direction = gate.direction;
    const double delta = check.actual - check.baseline;
    bool ok = true;
    if (direction == "both") {
      ok = std::abs(delta) <= tol;
    } else if (direction == "max") {
      ok = delta <= tol;  // Regressions grow the value; shrinking is a win.
    } else {
      ok = delta >= -tol;
    }
    // NaN never compares within tolerance — a NaN measurement must fail.
    if (std::isnan(check.actual) || std::isnan(check.baseline)) ok = false;
    check.ok = ok;
    check.detail = ok ? "ok"
                      : "REGRESSION: " + fmt(check.actual) + " vs baseline " +
                            fmt(check.baseline) + " (tol " + fmt(tol) +
                            ", direction " + direction + ")";
    report.checks.push_back(std::move(check));
  }

  for (const auto& [name, v] : actual) {
    (void)v;
    if (json::find(expected, name) == nullptr) {
      report.unchecked.push_back(name);
    }
  }
  return report;
}

std::string render_report(const CompareReport& report) {
  std::string out = report.bench + ": ";
  out += report.ok() ? "PASS" : "FAIL";
  out += '\n';
  for (const MetricCheck& c : report.checks) {
    out += "  [" + std::string(c.ok ? "ok" : "!!") + "] " + c.name + " = " +
           (c.present ? fmt(c.actual) : std::string("<missing>")) +
           " (baseline " + fmt(c.baseline) + ")";
    if (!c.ok) out += " — " + c.detail;
    out += '\n';
  }
  if (!report.unchecked.empty()) {
    out += "  unchecked:";
    for (const std::string& name : report.unchecked) out += ' ' + name;
    out += '\n';
  }
  return out;
}

std::string baseline_from_result(std::string_view result_json, double tol_rel,
                                 std::string_view previous_baseline) {
  GEARSIM_REQUIRE(tol_rel >= 0.0, "negative tolerance");
  const json::Value root = json::parse(result_json);
  const json::Object& result = root.as_object();
  GEARSIM_REQUIRE(json::field(result, "schema").as_string() == kBenchSchema,
                  "not a bench result document");
  const std::string& bench = json::field(result, "name").as_string();
  json::Value previous_root;
  const json::Object* previous = nullptr;
  if (!previous_baseline.empty()) {
    previous_root = json::parse(previous_baseline);
    const json::Object& doc = previous_root.as_object();
    GEARSIM_REQUIRE(json::field(doc, "schema").as_string() == kBaselineSchema,
                    "not a bench baseline document");
    GEARSIM_REQUIRE(json::field(doc, "name").as_string() == bench,
                    "baseline/result bench name mismatch: " +
                        json::field(doc, "name").as_string() + " vs " + bench);
    previous = &json::field(doc, "metrics").as_object();
  }
  // New metrics get `tol_rel` plus an absolute floor so near-zero values
  // (deltas, fractions) keep a usable band under a relative tolerance.
  const Gate fresh{tol_rel, 1e-9, "both"};
  std::string out = "{\"schema\":" + json::jstr(kBaselineSchema) +
                    ",\"name\":" + json::jstr(bench) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : json::field(result, "metrics").as_object()) {
    if (!first) out += ',';
    first = false;
    const json::Value* kept =
        previous != nullptr ? json::find(*previous, name) : nullptr;
    const Gate gate =
        kept != nullptr ? parse_gate(kept->as_object(), name) : fresh;
    out += json::jstr(name) + ":{\"value\":" + json::jnum(v.as_double()) +
           ",\"tol_rel\":" + json::jnum(gate.tol_rel) +
           ",\"tol_abs\":" + json::jnum(gate.tol_abs) +
           ",\"direction\":" + json::jstr(gate.direction) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace gearsim::obs
