#include "probe.hpp"

#include "exec/cache_key.hpp"
#include "exec/result_cache.hpp"
#include "exec/result_io.hpp"
#include "model/tradeoff.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

/// Runs `f`, records it as a span named `name` and as a sample under the
/// same name; returns what `f` returns.
template <typename F>
auto timed(Spans& spans, Samples& out, const char* name, F&& f) {
  const std::int64_t start = now_ns();
  auto value = f();
  const std::int64_t end = now_ns();
  spans.record(name, start, end);
  out[name].push_back(1e-9 * static_cast<double>(end - start));
  return value;
}

gearsim::exec::ResultCache::Options disk_cache(const std::string& dir) {
  gearsim::exec::ResultCache::Options options;
  options.disk_dir = dir;
  options.shard_digits = 2;
  return options;
}

}  // namespace

void probe_exec(const std::vector<ProbeItem>& items,
                const std::string& store_dir, Spans& spans, Samples& out) {
  namespace exec = gearsim::exec;
  const Spans::Scope scope(spans, "probe.exec");
  std::vector<exec::CacheKey> keys;
  {
    exec::ResultCache cache(disk_cache(store_dir));
    for (const ProbeItem& item : items) {
      const exec::CacheKey key = timed(spans, out, "exec.key", [&] {
        return exec::sweep_point_key(*item.config, item.workload->signature(),
                                     item.nodes, item.gear, item.rep,
                                     nullptr);
      });
      const std::string json = timed(spans, out, "exec.to_json",
                                     [&] { return exec::to_json(*item.result); });
      static_cast<void>(timed(spans, out, "exec.from_json",
                              [&] { return exec::result_from_json(json); }));
      timed(spans, out, "exec.insert", [&] {
        cache.insert(key, *item.result);
        return 0;
      });
      static_cast<void>(timed(spans, out, "exec.lookup_mem",
                              [&] { return cache.lookup(key); }));
      keys.push_back(key);
    }
  }
  exec::ResultCache reopened(disk_cache(store_dir));
  for (const exec::CacheKey& key : keys) {
    static_cast<void>(timed(spans, out, "exec.lookup_disk",
                            [&] { return reopened.lookup(key); }));
  }
}

void probe_json(const std::vector<std::string>& sweep_responses,
                Spans& spans, Samples& out) {
  namespace json = gearsim::json;
  const Spans::Scope scope(spans, "probe.json");
  for (const std::string& response : sweep_responses) {
    const json::Value value =
        timed(spans, out, "json.parse", [&] { return json::parse(response); });
    static_cast<void>(
        timed(spans, out, "json.render", [&] { return json::render(value); }));
  }
}

void probe_model(
    const std::vector<std::vector<gearsim::cluster::RunResult>>& curves,
    Spans& spans, Samples& out) {
  namespace model = gearsim::model;
  const Spans::Scope scope(spans, "probe.model");
  for (const auto& runs : curves) {
    static_cast<void>(timed(spans, out, "model.curve", [&] {
      const model::Curve curve = model::curve_from_runs(runs);
      return model::pareto_frontier(curve).size() +
             model::min_energy_index(curve);
    }));
  }
}

}  // namespace perfbench
