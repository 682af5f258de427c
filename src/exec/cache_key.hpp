// Content-addressed cache keys for simulation points.
//
// A RunResult is a pure function of (ClusterConfig, workload signature,
// nodes, gear, rep, fault plan).  The key canonicalizes every one of
// those inputs into a readable string — doubles at round-trip precision,
// containers in declaration order — and hashes it (FNV-1a 64) for
// bucketing and file naming.  The *string* is the authoritative identity:
// ResultCache compares it on every hit, so a 64-bit hash collision can
// never alias two different configurations.
//
// Invalidation rule: any field added to ClusterConfig, FaultPlan, or a
// workload's signature() must be folded in here (or there); changing the
// canonical format itself bumps kKeyFormatVersion, which retires every
// on-disk entry at once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cluster/config.hpp"
#include "faults/fault_plan.hpp"

namespace gearsim::exec {

/// Bump when the canonical text layout changes (retires old disk caches).
/// v2: policy identity joined the key (|policy=none / |policy=<sig>) and
/// results grew per-rank gear residency.
/// v3: results grew event_order_hash (the dispatch-order determinism
/// probe); older cached entries lack the field and must be re-run.
/// v4: results grew event_set_hash (an order-independent probe over
/// dispatched event times).  RunOptions::engine_threads stays OUT of
/// the key: a run's identity is its physics.
/// v5: lossy-link loss draws are keyed by transfer identity (src,
/// per-source ordinal) instead of global consumption order — link-fault
/// results changed, so every pre-v5 entry must be recomputed.
/// v6: net{...} grew topology=<spec> (flat / fat-tree / torus routing —
/// see net/topology.hpp).  Flat runs are byte-identical to v5, but the
/// key text changed shape, so the version retires old entries wholesale.
inline constexpr int kKeyFormatVersion = 6;

/// FNV-1a 64-bit hash of a byte string.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// A canonical key: the full text plus its hash.
struct CacheKey {
  std::string text;
  std::uint64_t hash = 0;

  /// Hash rendered as 16 lowercase hex digits (the disk file stem).
  [[nodiscard]] std::string hex() const;
};

/// Canonical serialization of a cluster configuration (every field).
[[nodiscard]] std::string canonical_config(const cluster::ClusterConfig& c);

/// Canonical serialization of a fault plan; "faults=none" when null or
/// empty, so a fault-free point keys identically with and without an
/// empty plan attached (they produce bit-identical runs).
[[nodiscard]] std::string canonical_fault_plan(const faults::FaultPlan* plan);

/// The key of one sweep point.  `workload_signature` is
/// Workload::signature(); `rep` is the repetition index (seeds shift by
/// +rep, see SweepPoint::rep); `policy_signature` is
/// GearPolicy::signature() for policy-driven points and empty for
/// uniform-gear points (keyed as "policy=none" — `gear_index` alone then
/// identifies the run).  A policy point can therefore never collide with
/// a uniform point, and two different policies at the same nominal gear
/// key differently.
[[nodiscard]] CacheKey sweep_point_key(const cluster::ClusterConfig& config,
                                       std::string_view workload_signature,
                                       int nodes, std::size_t gear_index,
                                       int rep,
                                       const faults::FaultPlan* plan,
                                       std::string_view policy_signature = {});

}  // namespace gearsim::exec
