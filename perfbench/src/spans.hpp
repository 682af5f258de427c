// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent) around one call the benchmark
// makes into a gearsim layer.  Spans stay in memory until the run ends
// and are written out once.  A disabled recorder never reads the clock,
// so an untraced run pays one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux, the same
/// clock Python's time.monotonic_ns reads).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Spans {
 public:
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = kNoParent;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

  /// Records a finished leaf span under the innermost open one.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    if (enabled_) spans_.push_back(Span{name, start_ns, end_ns, open_});
  }

  /// Opens a span under the innermost open one; closes on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans) {
      if (!spans_.enabled_) return;
      index_ = static_cast<std::int64_t>(spans_.spans_.size());
      spans_.spans_.push_back(Span{name, now_ns(), 0, spans_.open_});
      spans_.open_ = index_;
    }
    ~Scope() {
      if (index_ == kNoParent) return;
      Span& s = spans_.spans_[static_cast<std::size_t>(index_)];
      s.end_ns = now_ns();
      spans_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::int64_t index_ = kNoParent;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int64_t open_ = kNoParent;
};

}  // namespace perfbench
