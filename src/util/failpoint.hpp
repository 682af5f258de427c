// Deterministic fault-injection points ("failpoints") for testing the
// robustness machinery itself.
//
// A failpoint is a named hook compiled into a production code path (the
// sweep executor's job loop, the result-store write path,
// ExperimentRunner::run).
// Disarmed — the default — a visit costs one relaxed atomic load and
// nothing else.  Armed (programmatically or via the GEARSIM_FAILPOINTS
// environment variable), the hook fires on a deterministic schedule and
// the call site injects the corresponding failure: throw on job N,
// truncate the next store write, skip the atomic rename.  Tests exercise
// crash/retry/quarantine paths on exact, reproducible schedules instead
// of relying on real faults to happen.
//
// Two addressing modes share one spec:
//
//  * visit mode — the call site passes no index; firing is counted per
//    visit in arrival order (serial paths: store writes, CLI runs);
//  * index mode — the call site passes a stable identifier (the sweep
//    job index); firing depends only on that index, so the schedule is
//    deterministic under any worker count and claim order.
//
// See docs/RESILIENCE.md for the wired-in failpoint names.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gearsim::util {

/// When and how often an armed failpoint fires.  All counting is per
/// *stream*: visits with the same caller-supplied index (or all visits,
/// in visit mode) share one skip/times budget.
struct FailpointSpec {
  /// Index mode: fire only for these caller-supplied indices (empty =
  /// fire for any index, including visit-mode calls).
  std::vector<std::int64_t> indices;
  /// Visits of a stream to let pass before the first fire.
  std::uint64_t skip = 0;
  /// Maximum fires per stream; -1 = unlimited.
  std::int64_t times = 1;
  /// After `skip`, fire every Nth eligible visit (1 = consecutively).
  std::uint64_t every = 1;
  /// Opaque payload handed back to the call site (an errno, a byte
  /// count, a sleep in milliseconds — the site documents its meaning).
  std::int64_t arg = 0;
};

/// Registry of armed failpoints.  Thread-safe; a process-wide instance
/// lives behind global().  Tests normally arm through ScopedFailpoint so
/// a failing test cannot leak an armed point into its neighbours.
class Failpoints {
 public:
  /// The process-wide registry.  First use parses GEARSIM_FAILPOINTS
  /// ("name[@i1,i2][=skip[:times[:arg[:every]]]];..." — arm_from_string).
  static Failpoints& global();

  void arm(const std::string& name, FailpointSpec spec);
  void disarm(const std::string& name);
  void clear();
  [[nodiscard]] bool armed(const std::string& name) const;

  /// Visit `name`: returns the spec's arg when the failpoint fires this
  /// visit, nullopt otherwise (including when it is not armed).
  std::optional<std::int64_t> hit(std::string_view name,
                                  std::int64_t index = -1);

  /// Arm from a ';'-separated list: each item is `name` (defaults: fire
  /// the first visit once), optionally restricted to caller indices with
  /// `name@i1,i2,...` ("throw on job N"), optionally scheduled with
  /// `=skip[:times[:arg[:every]]]`.  Throws ContractError on malformed
  /// input.
  void arm_from_string(const std::string& text);

  /// Number of armed points — the disarmed fast path checks this once.
  [[nodiscard]] std::size_t armed_count() const {
    return armed_.load(std::memory_order_relaxed);
  }

 private:
  struct Stream {
    std::uint64_t visits = 0;
    std::int64_t fired = 0;
  };
  struct State {
    FailpointSpec spec;
    std::map<std::int64_t, Stream> streams;  // keyed by caller index
  };

  mutable std::mutex mutex_;
  std::map<std::string, State, std::less<>> points_;
  std::atomic<std::size_t> armed_{0};
};

/// The call-site hook: one relaxed load when nothing is armed anywhere.
[[nodiscard]] inline std::optional<std::int64_t> failpoint(
    std::string_view name, std::int64_t index = -1) {
  Failpoints& registry = Failpoints::global();
  if (registry.armed_count() == 0) return std::nullopt;
  return registry.hit(name, index);
}

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, FailpointSpec spec)
      : name_(std::move(name)) {
    Failpoints::global().arm(name_, std::move(spec));
  }
  ~ScopedFailpoint() { Failpoints::global().disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace gearsim::util
