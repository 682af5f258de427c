// bench_compare — the benchmark-regression gate.
//
//   bench_compare check --baselines DIR --results DIR
//   bench_compare check --baseline FILE --result FILE
//   bench_compare bless --results DIR --baselines DIR [--tol-rel F]
//   bench_compare bless --result FILE --baseline FILE [--tol-rel F]
//
// `check` compares every bench result document (BENCH_<name>.json, the
// bench/harness schema) against its committed baseline
// (bench/baselines/<name>.json, self-describing per-metric tolerances)
// and exits nonzero if any baselined metric regressed or disappeared.  A
// baseline without a matching result is likewise a failure — a bench
// that silently stopped running is a regression.  Results without a
// baseline are listed as unchecked, never failed.
//
// `bless` regenerates baselines from result documents.  A metric already
// in the baseline being replaced keeps its tolerances and direction, so
// exact gates stay exact; new metrics get --tol-rel (default 0.02).
// Blessing is an explicit, reviewed act: commit the diff it produces.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/compare.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gearsim;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The bench name a document claims ("name" field), used to pair results
/// with baselines regardless of filename conventions.
std::string bench_name(const std::string& doc) {
  return json::field(json::parse(doc).as_object(), "name").as_string();
}

/// Collect <name> -> document for every *.json under `dir`.
std::map<std::string, std::string> load_dir(const fs::path& dir) {
  std::map<std::string, std::string> docs;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error(dir.string() + " is not a directory");
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") {
      continue;
    }
    const std::string doc = slurp(entry.path());
    docs[bench_name(doc)] = doc;
  }
  return docs;
}

int check(const std::map<std::string, std::string>& baselines,
          const std::map<std::string, std::string>& results) {
  bool ok = true;
  for (const auto& [name, baseline] : baselines) {
    const auto it = results.find(name);
    if (it == results.end()) {
      std::cout << "FAIL " << name << ": baseline has no result document\n";
      ok = false;
      continue;
    }
    const obs::CompareReport report = obs::compare_bench(baseline, it->second);
    std::cout << obs::render_report(report);
    ok = ok && report.ok();
  }
  for (const auto& [name, result] : results) {
    if (baselines.count(name) == 0) {
      std::cout << "note: " << name << " has no baseline (unchecked)\n";
    }
  }
  std::cout << (ok ? "bench_compare: PASS\n"
                   : "bench_compare: FAIL (see lines above)\n");
  return ok ? 0 : 1;
}

void write_file(const fs::path& path, const std::string& content) {
  if (path.has_parent_path()) fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << content;
  if (!out.good()) {
    throw std::runtime_error("failed to write " + path.string());
  }
  std::cout << "wrote " << path.string() << '\n';
}

/// Re-bless one baseline file from `result`, keeping the gates of the
/// metrics the file already holds.
void bless_file(const fs::path& path, const std::string& result,
                double tol_rel) {
  const std::string previous = fs::exists(path) ? slurp(path) : std::string();
  write_file(path, obs::baseline_from_result(result, tol_rel, previous) + "\n");
}

int usage() {
  std::cerr
      << "usage: bench_compare check --baselines DIR --results DIR\n"
         "       bench_compare check --baseline FILE --result FILE\n"
         "       bench_compare bless --results DIR --baselines DIR"
         " [--tol-rel F]\n"
         "       bench_compare bless --result FILE --baseline FILE"
         " [--tol-rel F]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    flags[key.substr(2)] = argv[i + 1];
  }

  try {
    // Single-file and directory forms normalize to name->document maps.
    std::map<std::string, std::string> baselines;
    std::map<std::string, std::string> results;
    if (flags.count("result")) {
      const std::string doc = slurp(flags.at("result"));
      results[bench_name(doc)] = doc;
    } else if (flags.count("results")) {
      results = load_dir(flags.at("results"));
    }

    if (command == "check") {
      if (flags.count("baseline")) {
        const std::string doc = slurp(flags.at("baseline"));
        baselines[bench_name(doc)] = doc;
      } else if (flags.count("baselines")) {
        baselines = load_dir(flags.at("baselines"));
      } else {
        return usage();
      }
      if (results.empty()) return usage();
      return check(baselines, results);
    }
    if (command == "bless") {
      const double tol_rel = flags.count("tol-rel")
                                 ? std::stod(flags.at("tol-rel"))
                                 : 0.02;
      if (results.empty()) return usage();
      if (flags.count("baseline")) {
        for (const auto& [name, result] : results) {
          bless_file(flags.at("baseline"), result, tol_rel);
        }
        return 0;
      }
      if (!flags.count("baselines")) return usage();
      for (const auto& [name, result] : results) {
        bless_file(fs::path(flags.at("baselines")) / (name + ".json"), result,
                   tol_rel);
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
