// Tests for the parallel sweep executor: cache keys, the JSON result
// codec, the two-tier ResultCache (including store-v3 crash consistency:
// torn writes, bit flips, legacy entries, stale temp files, quarantine),
// and the determinism contract — SweepRunner output is bit-identical
// (per to_json, which covers every RunResult field) across job counts
// and cold/warm caches.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/cache_key.hpp"
#include "exec/result_cache.hpp"
#include "exec/result_io.hpp"
#include "exec/store.hpp"
#include "exec/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/registry.hpp"

namespace gearsim::exec {
namespace {

/// A scratch directory removed on destruction, for disk-cache tests.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("gearsim_exec_test_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::vector<std::string> fingerprints(
    const std::vector<cluster::RunResult>& runs) {
  std::vector<std::string> out;
  out.reserve(runs.size());
  for (const auto& r : runs) out.push_back(to_json(r));
  return out;
}

// ---- cache keys -------------------------------------------------------------

TEST(CacheKeyTest, SensitiveToEverySweepCoordinate) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const CacheKey base = sweep_point_key(config, "J", 4, 2, 0, nullptr);
  EXPECT_NE(base.text,
            sweep_point_key(config, "J2", 4, 2, 0, nullptr).text);
  EXPECT_NE(base.text, sweep_point_key(config, "J", 5, 2, 0, nullptr).text);
  EXPECT_NE(base.text, sweep_point_key(config, "J", 4, 3, 0, nullptr).text);
  EXPECT_NE(base.text, sweep_point_key(config, "J", 4, 2, 1, nullptr).text);
}

TEST(CacheKeyTest, SensitiveToConfigFields) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const CacheKey base = sweep_point_key(config, "J", 4, 2, 0, nullptr);

  cluster::ClusterConfig seeded = config;
  seeded.seed += 1;
  EXPECT_NE(base.text, sweep_point_key(seeded, "J", 4, 2, 0, nullptr).text);

  cluster::ClusterConfig power = config;
  power.power.base = power.power.base + watts(1.0);
  EXPECT_NE(base.text, sweep_point_key(power, "J", 4, 2, 0, nullptr).text);

  cluster::ClusterConfig net = config;
  net.network.latency_jitter += 0.001;
  EXPECT_NE(base.text, sweep_point_key(net, "J", 4, 2, 0, nullptr).text);
}

TEST(CacheKeyTest, EmptyFaultPlanKeysLikeNoPlan) {
  // An empty plan is bit-identical to no plan at run time, so they must
  // share a cache entry; a populated plan must not.
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const faults::FaultPlan empty;
  faults::FaultPlan crashy(7);
  crashy.crash(1, seconds(5.0));

  const CacheKey none = sweep_point_key(config, "J", 4, 2, 0, nullptr);
  EXPECT_EQ(none.text, sweep_point_key(config, "J", 4, 2, 0, &empty).text);
  EXPECT_NE(none.text, sweep_point_key(config, "J", 4, 2, 0, &crashy).text);
}

TEST(CacheKeyTest, WorkloadSignatureFoldsParameters) {
  workloads::Jacobi::Params p;
  const std::string base = workloads::Jacobi(p).signature();
  p.iterations += 1;
  EXPECT_NE(base, workloads::Jacobi(p).signature());
}

TEST(CacheKeyTest, HexIsStable) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  CacheKey k;
  k.hash = 0xcbf29ce484222325ULL;
  EXPECT_EQ(k.hex(), "cbf29ce484222325");
}

// ---- result JSON codec ------------------------------------------------------

TEST(ResultIoTest, RoundTripsAPlainRun) {
  const cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const cluster::RunResult r = runner.run(workloads::Jacobi(), 4, 2);
  const std::string json = to_json(r);
  const cluster::RunResult back = result_from_json(json);
  EXPECT_EQ(json, to_json(back));
  EXPECT_EQ(back.nodes, r.nodes);
  EXPECT_EQ(back.gear_index, r.gear_index);
  EXPECT_EQ(back.wall.value(), r.wall.value());  // Exact, not NEAR.
  EXPECT_EQ(back.energy.value(), r.energy.value());
  EXPECT_EQ(back.node_energy.size(), r.node_energy.size());
  EXPECT_EQ(back.breakdown.ranks.size(), r.breakdown.ranks.size());
}

TEST(ResultIoTest, RoundTripsFaultsAndPolicyFields) {
  cluster::ClusterConfig config = cluster::athlon_cluster();
  config.sample_power = true;
  const cluster::ExperimentRunner runner(config);

  faults::FaultPlan plan(11);
  plan.crash(1, seconds(2.0));
  plan.drop_meter(0, seconds(0.5), seconds(1.5));
  faults::CheckpointConfig ckpt;
  ckpt.interval = seconds(3.0);
  plan.with_checkpointing(ckpt);

  cluster::CommDownshift policy(0, 5);
  cluster::RunOptions options;
  options.policy = &policy;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(workloads::Jacobi(), 4, options);

  const std::string json = to_json(r);
  const cluster::RunResult back = result_from_json(json);
  EXPECT_EQ(json, to_json(back));
  EXPECT_TRUE(back.policy_run);
  EXPECT_EQ(back.outcome, r.outcome);
  EXPECT_EQ(back.retries, r.retries);
  EXPECT_EQ(back.fault_events.size(), r.fault_events.size());
  EXPECT_EQ(back.sampled_energy.has_value(), r.sampled_energy.has_value());
}

TEST(ResultIoTest, RejectsMalformedInput) {
  EXPECT_THROW((void)result_from_json("{"), ContractError);
  EXPECT_THROW((void)result_from_json("{}"), ContractError);
  EXPECT_THROW((void)result_from_json("[1,2]"), ContractError);
  EXPECT_THROW((void)result_from_json(""), ContractError);
}

// ---- ResultCache ------------------------------------------------------------

cluster::RunResult small_result(int nodes) {
  cluster::RunResult r;
  r.nodes = nodes;
  r.wall = seconds(1.0 + nodes);
  return r;
}

CacheKey key_of(const std::string& text) {
  CacheKey k;
  k.text = text;
  k.hash = fnv1a(text);
  return k;
}

TEST(ResultCacheTest, HitMissAndCounters) {
  ResultCache cache;
  const CacheKey k = key_of("point-a");
  EXPECT_FALSE(cache.lookup(k).has_value());
  cache.insert(k, small_result(3));
  const auto hit = cache.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nodes, 3);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.lookups(), 2u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache::Options options;
  options.capacity = 2;
  ResultCache cache(options);
  cache.insert(key_of("a"), small_result(1));
  cache.insert(key_of("b"), small_result(2));
  (void)cache.lookup(key_of("a"));            // "b" is now least recent.
  cache.insert(key_of("c"), small_result(3)); // Evicts "b".
  EXPECT_TRUE(cache.lookup(key_of("a")).has_value());
  EXPECT_FALSE(cache.lookup(key_of("b")).has_value());
  EXPECT_TRUE(cache.lookup(key_of("c")).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, DiskStoreSurvivesProcessBoundary) {
  const TempDir dir("disk");
  const CacheKey k = key_of("persisted-point");
  {
    ResultCache::Options options;
    options.disk_dir = dir.path.string();
    ResultCache writer(options);
    writer.insert(k, small_result(5));
  }
  // A fresh cache (simulating a new process) must find it on disk.
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  ResultCache reader(options);
  const auto hit = reader.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nodes, 5);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
}

TEST(ResultCacheTest, HashCollisionReadsAsMiss) {
  // Two different keys forced onto the same disk file (same hash field):
  // the stored key text mismatches the probe, so the lookup must miss
  // rather than return the other point's result.
  const TempDir dir("collide");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  ResultCache cache(options);

  CacheKey a = key_of("first");
  CacheKey b = key_of("second");
  b.hash = a.hash;  // Forced collision: same file name.
  cache.insert(a, small_result(1));

  ResultCache fresh(options);
  EXPECT_FALSE(fresh.lookup(b).has_value());
  EXPECT_TRUE(fresh.lookup(a).has_value());
}

TEST(ResultCacheTest, CorruptDiskEntryReadsAsMiss) {
  const TempDir dir("corrupt");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("mangled");
  {
    ResultCache writer(options);
    writer.insert(k, small_result(2));
  }
  // Truncate the entry mid-JSON.
  const std::string file = dir.path.string() + "/" + k.hex() + ".json";
  {
    std::ofstream out(file, std::ios::trunc);
    out << "{\"key\":\"" << k.text << "\",\"result\":{\"nodes\":";
  }
  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().misses, 1u);
}

// ---- store v3 crash consistency ---------------------------------------------

std::string entry_path(const TempDir& dir, const CacheKey& k) {
  return dir.path.string() + "/" + k.hex() + ".json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(StoreTest, TruncatedEntryIsQuarantinedAndRecomputed) {
  const TempDir dir("truncated");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("torn-write");
  {
    ResultCache writer(options);
    writer.insert(k, small_result(4));
  }
  const std::string path = entry_path(dir, k);
  const std::string whole = read_file(path);
  write_file(path, whole.substr(0, whole.size() / 2));  // Torn write.

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().quarantined, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  // Quarantined out of the live directory, preserved for post-mortem.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(dir.path / kQuarantineDir /
                                      (k.hex() + ".json")));

  // Recompute-and-reinsert replaces the entry byte-identically: the
  // store's contents depend only on (key, result), never on history.
  reader.insert(k, small_result(4));
  EXPECT_EQ(read_file(path), whole);
}

TEST(StoreTest, BitFlipFailsChecksumAndQuarantines) {
  const TempDir dir("bitflip");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("flipped");
  {
    ResultCache writer(options);
    writer.insert(k, small_result(7));
  }
  const std::string path = entry_path(dir, k);
  std::string bytes = read_file(path);
  bytes[bytes.size() - 10] ^= 0x20;  // One flipped bit in the payload.
  write_file(path, bytes);

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  const StoreValidation v = validate_store_bytes(bytes);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("checksum"), std::string::npos);
}

TEST(StoreTest, HeaderlessLegacyEntryIsQuarantined) {
  const TempDir dir("legacy");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("old-format");
  // A pre-v3 entry: bare payload, no integrity header.
  write_file(entry_path(dir, k), "{\"key\":\"" + k.text +
                                     "\",\"result\":{\"nodes\":1}}\n");
  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().quarantined, 1u);
}

TEST(StoreTest, ValidChecksumUndecodableResultIsQuarantined) {
  // A hand-edited entry whose header was dutifully recomputed: bytes are
  // self-consistent but the result JSON no longer decodes.  The read
  // path's std::exception net (not just ContractError) must catch it.
  const TempDir dir("handedit");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("edited");
  const std::string payload = "{\"format\":" + std::to_string(3) +
                              ",\"key\":\"" + k.text +
                              "\",\"result\":{\"nonsense\":true}}\n";
  std::ostringstream entry;
  entry << "gearsim-store v3 len=" << payload.size() << " fnv1a=" << std::hex
        << std::setw(16) << std::setfill('0') << fnv1a(payload) << "\n"
        << payload;
  write_file(entry_path(dir, k), entry.str());

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().quarantined, 1u);
}

TEST(StoreTest, StaleTmpFileIsSweptNotServed) {
  const TempDir dir("staletmp");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("interrupted");
  // A writer died between write and rename: only the temp file exists.
  const std::string tmp = entry_path(dir, k) + ".tmp.123.0";
  write_file(tmp, render_store_entry(k.text, small_result(9)));

  ResultCache reader(options);
  EXPECT_EQ(reader.stats().stale_tmp_swept, 1u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_FALSE(reader.lookup(k).has_value());  // Never served from tmp.
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(StoreTest, RenameFailpointLeavesOnlyTmpBehind) {
  const TempDir dir("renamefail");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("never-renamed");
  {
    ResultCache writer(options);
    const util::ScopedFailpoint fp("exec.store.rename.fail", {});
    writer.insert(k, small_result(3));
  }
  EXPECT_FALSE(std::filesystem::exists(entry_path(dir, k)));

  // The "crashed" writer's temp file is swept by the next construction,
  // and the point reads as a plain miss (memory tier aside).
  ResultCache reader(options);
  EXPECT_EQ(reader.stats().stale_tmp_swept, 1u);
  EXPECT_FALSE(reader.lookup(k).has_value());
}

TEST(StoreTest, TruncateFailpointProducesDetectableCorruption) {
  const TempDir dir("truncfp");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("torn-by-failpoint");
  {
    ResultCache writer(options);
    util::FailpointSpec spec;
    spec.arg = 40;  // Keep only the first 40 bytes.
    const util::ScopedFailpoint fp("exec.store.write.truncate", spec);
    writer.insert(k, small_result(6));
  }
  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
}

TEST(StoreTest, VerifyAndScrubWalkTheStore) {
  const TempDir dir("walk");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey good = key_of("good");
  const CacheKey bad = key_of("bad");
  {
    ResultCache writer(options);
    writer.insert(good, small_result(1));
    writer.insert(bad, small_result(2));
  }
  const std::string bad_path = entry_path(dir, bad);
  const std::string whole = read_file(bad_path);
  write_file(bad_path, whole.substr(0, 30));
  write_file(entry_path(dir, good) + ".tmp.99.1", "leftover");

  const StoreReport verified = verify_store(dir.path.string());
  EXPECT_EQ(verified.scanned, 2u);
  EXPECT_EQ(verified.valid, 1u);
  ASSERT_EQ(verified.corrupt.size(), 1u);
  EXPECT_EQ(verified.corrupt[0], bad_path);
  EXPECT_EQ(verified.stale_tmp.size(), 1u);
  EXPECT_FALSE(verified.clean());
  EXPECT_EQ(verified.quarantined, 0u);  // verify is read-only
  EXPECT_TRUE(std::filesystem::exists(bad_path));

  const StoreReport scrubbed = scrub_store(dir.path.string());
  EXPECT_EQ(scrubbed.quarantined, 1u);
  EXPECT_EQ(scrubbed.removed_tmp, 1u);
  EXPECT_FALSE(std::filesystem::exists(bad_path));
  EXPECT_TRUE(std::filesystem::exists(dir.path / kQuarantineDir /
                                      (bad.hex() + ".json")));

  const StoreReport after = verify_store(dir.path.string());
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.scanned, 1u);
}

TEST(StoreTest, QuarantineCollisionKeepsBothCopies) {
  const TempDir dir("collide2");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("twice-corrupt");
  for (int round = 0; round < 2; ++round) {
    {
      ResultCache writer(options);
      writer.insert(k, small_result(round + 1));
    }
    const std::string path = entry_path(dir, k);
    write_file(path, read_file(path).substr(0, 25));
    ResultCache reader(options);
    EXPECT_FALSE(reader.lookup(k).has_value());
    EXPECT_EQ(reader.stats().quarantined, 1u);
  }
  // Both corrupt generations survive under distinct quarantine names.
  std::size_t quarantined = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(dir.path / kQuarantineDir)) {
    if (e.is_regular_file()) ++quarantined;
  }
  EXPECT_EQ(quarantined, 2u);
}

TEST(StoreTest, CorruptionEventsReachMetrics) {
  const TempDir dir("metrics");
  obs::MetricsRegistry reg;
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  options.metrics = &reg;
  const CacheKey k = key_of("counted");
  {
    ResultCache writer(options);
    writer.insert(k, small_result(2));
  }
  const std::string path = entry_path(dir, k);
  write_file(path, read_file(path).substr(0, 20));

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reg.counter("exec.store.corrupt").value(), 1u);
  EXPECT_EQ(reg.counter("exec.store.quarantined").value(), 1u);
}

// ---- SweepRunner determinism ------------------------------------------------

TEST(SweepRunnerTest, ValidatesPointsUpFront) {
  const SweepRunner runner(cluster::athlon_cluster());
  const workloads::Jacobi jacobi;
  EXPECT_THROW((void)runner.run({SweepPoint{nullptr, 2, 0, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 0, 0, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 11, 0, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 2, 6, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 2, 0, -1}}),
               ContractError);
}

TEST(SweepRunnerTest, BitIdenticalAcrossJobCounts) {
  // The determinism contract: jobs=1 and jobs=8 produce byte-identical
  // results (to_json covers every field) in the same order — through
  // run() and through non-strict supervise() alike.
  const workloads::Jacobi jacobi;
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions wide;
  wide.jobs = 8;
  const SweepRunner a(cluster::athlon_cluster(), serial);
  const SweepRunner b(cluster::athlon_cluster(), wide);

  const auto ra = a.grid(jacobi, {1, 2, 4});
  const auto rb = b.grid(jacobi, {1, 2, 4});
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_EQ(fingerprints(ra), fingerprints(rb));

  std::vector<SweepPoint> points;
  for (int nodes : {1, 2, 4}) {
    for (std::size_t g = 0; g < 6; ++g) {
      points.push_back(SweepPoint{&jacobi, nodes, g, 0});
    }
  }
  const SweepOutcome outcome = b.supervise(points, SupervisorOptions{});
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.results.size(), ra.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(to_json(*outcome.results[i]), to_json(ra[i])) << "point " << i;
  }
}

TEST(SweepRunnerTest, MatchesExperimentRunnerGearSweep) {
  // SweepRunner is a scheduling layer, not a different simulator: its
  // gear sweep must equal ExperimentRunner::gear_sweep bit for bit.
  const workloads::Jacobi jacobi;
  const cluster::ExperimentRunner direct(cluster::athlon_cluster());
  SweepOptions options;
  options.jobs = 4;
  const SweepRunner sweep(cluster::athlon_cluster(), options);
  EXPECT_EQ(fingerprints(direct.gear_sweep(jacobi, 4)),
            fingerprints(sweep.gear_sweep(jacobi, 4)));
}

TEST(SweepRunnerTest, RepeatMatchesRunRepeatedSeeds) {
  // Repetition r of a point runs under (seed + r, jitter_seed + r): the
  // same bytes as ExperimentRunner::run on the shifted config.
  const workloads::Jacobi jacobi;
  const cluster::ClusterConfig base = cluster::athlon_cluster();
  std::vector<SweepPoint> points;
  std::vector<std::string> reference;
  for (int r = 0; r < 3; ++r) {
    points.push_back(SweepPoint{&jacobi, 2, 1, r});
    cluster::ClusterConfig shifted = base;
    shifted.seed = base.seed + static_cast<std::uint64_t>(r);
    shifted.network.jitter_seed =
        base.network.jitter_seed + static_cast<std::uint64_t>(r);
    reference.push_back(
        to_json(cluster::ExperimentRunner(shifted).run(jacobi, 2, 1)));
  }
  EXPECT_EQ(fingerprints(SweepRunner(base).run(points)), reference);
}

TEST(SweepRunnerTest, ColdAndWarmCacheAreByteIdentical) {
  const workloads::Jacobi jacobi;
  const TempDir dir("warm");
  ResultCache::Options cache_options;
  cache_options.disk_dir = dir.path.string();

  std::vector<std::string> cold;
  {
    ResultCache cache(cache_options);
    SweepOptions options;
    options.jobs = 2;
    options.cache = &cache;
    const SweepRunner runner(cluster::athlon_cluster(), options);
    cold = fingerprints(runner.gear_sweep(jacobi, 2));
    EXPECT_EQ(cache.stats().misses, 6u);
    EXPECT_EQ(cache.stats().hits, 0u);
  }
  // Same process, warm memory+disk: every point must hit and match.
  {
    ResultCache cache(cache_options);  // Fresh memory; disk is warm.
    SweepOptions options;
    options.jobs = 2;
    options.cache = &cache;
    const SweepRunner runner(cluster::athlon_cluster(), options);
    const auto warm = fingerprints(runner.gear_sweep(jacobi, 2));
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cache.stats().disk_hits, 6u);
    EXPECT_EQ(cache.stats().misses, 0u);
  }
}

TEST(SweepRunnerTest, CacheDistinguishesFaultPlans) {
  // A faulty sweep must not be served a fault-free cached result.
  const workloads::Jacobi jacobi;
  ResultCache cache;

  SweepOptions clean;
  clean.cache = &cache;
  const SweepRunner clean_runner(cluster::athlon_cluster(), clean);
  const auto clean_runs = clean_runner.run({SweepPoint{&jacobi, 2, 0, 0}});

  faults::FaultPlan plan(3);
  plan.straggle(1, seconds(0.0), seconds(100.0), 5);
  SweepOptions faulty = clean;
  faulty.faults = &plan;
  const SweepRunner faulty_runner(cluster::athlon_cluster(), faulty);
  const auto faulty_runs = faulty_runner.run({SweepPoint{&jacobi, 2, 0, 0}});

  EXPECT_EQ(cache.stats().misses, 2u);  // No cross-contamination.
  EXPECT_NE(to_json(clean_runs[0]), to_json(faulty_runs[0]));
}

TEST(SweepRunnerTest, EngineModeSharesOneCache) {
  // engine_threads is deliberately NOT part of the cache key
  // (cache_key.hpp v4): an entry written with it pinned to 1 must be
  // served verbatim to a sweep that leaves it at 0 — zero re-simulation.
  const workloads::Jacobi jacobi;
  ResultCache cache;

  SweepOptions pinned;
  pinned.cache = &cache;
  pinned.engine_threads = 1;
  const SweepRunner pinned_runner(cluster::athlon_cluster(), pinned);
  const auto pinned_runs =
      pinned_runner.run({SweepPoint{&jacobi, 4, 2, 0}});
  EXPECT_EQ(cache.stats().misses, 1u);

  SweepOptions defaults = pinned;
  defaults.engine_threads = 0;
  const SweepRunner default_runner(cluster::athlon_cluster(), defaults);
  const auto default_runs =
      default_runner.run({SweepPoint{&jacobi, 4, 2, 0}});
  EXPECT_EQ(cache.stats().misses, 1u);  // Served from the pinned entry.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(to_json(pinned_runs[0]), to_json(default_runs[0]));
}

TEST(SweepRunnerTest, ExceptionInOnePointPropagates) {
  // BT requires a square node count; the failure must surface even when
  // other points of the same parallel sweep succeed.
  const auto bt = workloads::make_workload("BT");
  const workloads::Jacobi jacobi;
  SweepOptions options;
  options.jobs = 4;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 4, 0, 0},
                                 SweepPoint{bt.get(), 8, 0, 0}}),
               ContractError);
}

TEST(SweepRunnerTest, FailingSweepStillCachesItsGoodPoints) {
  // run() is strict mode of supervise(): every job drains before the
  // lowest-index failure is rethrown, so a good point listed after a
  // failing one is still simulated and cached, not skipped.
  const auto bt = workloads::make_workload("BT");
  const workloads::Jacobi jacobi;
  ResultCache cache;
  SweepOptions options;
  options.jobs = 1;
  options.cache = &cache;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  EXPECT_THROW((void)runner.run({SweepPoint{bt.get(), 8, 0, 0},
                                 SweepPoint{&jacobi, 4, 0, 0}}),
               ContractError);
  EXPECT_EQ(cache.stats().insertions, 1u);
  (void)runner.run({SweepPoint{&jacobi, 4, 0, 0}});
  EXPECT_EQ(cache.stats().hits, 1u);
}

}  // namespace
}  // namespace gearsim::exec
