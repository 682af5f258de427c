#include "obs/manifest.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace gearsim::obs {

namespace {

std::string info_json(
    const std::vector<std::pair<std::string, std::string>>& info) {
  // Canonical: sorted by key, duplicates rejected (two writers disagreeing
  // about one key must fail loudly, not last-write-wins silently).
  auto sorted = info;
  std::sort(sorted.begin(), sorted.end());
  std::string s = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) {
      GEARSIM_REQUIRE(sorted[i].first != sorted[i - 1].first,
                      "duplicate manifest info key: " + sorted[i].first);
      s += ',';
    }
    s += json::jstr(sorted[i].first) + ":" + json::jstr(sorted[i].second);
  }
  s += '}';
  return s;
}

}  // namespace

std::string RunManifest::deterministic_json() const {
  std::string s = "{";
  s += "\"schema\":" + json::jstr(kSchema);
  s += ",\"tool\":" + json::jstr(tool);
  s += ",\"cache_key_format\":" + std::to_string(cache_key_format);
  s += ",\"info\":" + info_json(info);
  s += ",\"metrics\":" + metrics.to_json(Domain::kSim);
  s += '}';
  return s;
}

std::string RunManifest::to_json() const {
  std::string s = "{";
  s += "\"schema\":" + json::jstr(kSchema);
  s += ",\"tool\":" + json::jstr(tool);
  s += ",\"cache_key_format\":" + std::to_string(cache_key_format);
  s += ",\"info\":" + info_json(info);
  s += ",\"metrics\":" + metrics.to_json(Domain::kSim);
  s += ",\"wall\":{\"seconds\":" + json::jnum(wall_seconds) +
       ",\"metrics\":" + metrics.to_json(Domain::kWall) + "}";
  s += '}';
  return s;
}

RunManifest RunManifest::from_json(std::string_view text) {
  const json::Value root = json::parse(text);
  const json::Object& o = root.as_object();
  GEARSIM_REQUIRE(json::field(o, "schema").as_string() == kSchema,
                  "unknown manifest schema: " +
                      json::field(o, "schema").as_string());
  RunManifest m;
  m.tool = json::field(o, "tool").as_string();
  m.cache_key_format = json::field(o, "cache_key_format").as_int();
  for (const auto& [k, v] : json::field(o, "info").as_object()) {
    m.info.emplace_back(k, v.as_string());
  }
  const json::Object& wall = json::field(o, "wall").as_object();
  m.wall_seconds = json::field(wall, "seconds").as_double();
  merge_metrics_section(json::field(o, "metrics"), Domain::kSim, m.metrics);
  merge_metrics_section(json::field(wall, "metrics"), Domain::kWall,
                        m.metrics);
  return m;
}

void write_manifest_file(const RunManifest& manifest,
                         const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::trunc);
  out << manifest.to_json() << '\n';
  if (!out.good()) {
    throw SimulationError("failed to write manifest: " + path);
  }
}

}  // namespace gearsim::obs
