#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "util/assert.hpp"

namespace gearsim::sim {

namespace {

int resolve_partition_threads(int threads, std::size_t partitions) {
  if (threads == 0) return static_cast<int>(partitions);
  if (threads < 0) threads = resolve_jobs(-1);  // Hardware count.
  return std::clamp(threads, 1, static_cast<int>(partitions));
}

}  // namespace

ParallelEngine::ParallelEngine(std::size_t partitions, Seconds lookahead,
                               int threads)
    : lookahead_(lookahead),
      pool_(resolve_partition_threads(threads, std::max<std::size_t>(
                                                   partitions, 1))) {
  GEARSIM_REQUIRE(partitions >= 1, "ParallelEngine needs >= 1 partition");
  GEARSIM_REQUIRE(std::isfinite(lookahead.value()) && lookahead.value() > 0.0,
                  "conservative lookahead must be finite and positive");
  parts_.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    auto engine = std::make_unique<Engine>();
    engine->partition_id_ = p;
    parts_.push_back(std::move(engine));
  }
  lanes_.resize(partitions * (partitions + 1));
}

ParallelEngine::~ParallelEngine() { terminate_processes(); }

Engine& ParallelEngine::partition(std::size_t p) {
  GEARSIM_REQUIRE(p < parts_.size(), "partition index out of range");
  return *parts_[p];
}

void ParallelEngine::post(Engine& from, std::size_t to, Seconds t,
                          EventFn fn) {
  GEARSIM_REQUIRE(to < parts_.size(), "post target partition out of range");
  const std::size_t src = from.partition_id();
  GEARSIM_REQUIRE(src < parts_.size() && parts_[src].get() == &from,
                  "post source is not a partition of this group");
  // The conservative bound.  During a window the horizon is T + lookahead
  // and every dispatching partition sits at now() >= T, so any event
  // delayed by at least the lookahead satisfies this by construction; a
  // violation means the caller modeled a cross-partition interaction
  // faster than the declared lookahead.
  GEARSIM_REQUIRE(t >= horizon_,
                  "cross-partition event below the conservative horizon");
  // Pedigree: born at the poster's current instant, by the posting event
  // — exactly where a serial engine would have inserted this event, and
  // by whom.  The destination queue orders simultaneous events by
  // pedigree before seq, so the late physical insertion (at the barrier)
  // does not disturb the serial-equivalent dispatch order.
  const EventPedigree& p = from.current_event_pedigree();
  lane(to, src).add(t, std::move(fn),
                    EventPedigree{from.now(), p.birth, p.parent});
}

void ParallelEngine::post_at_barrier(std::size_t to, Seconds t, EventFn fn) {
  post_at_barrier(to, t, std::move(fn), EventPedigree{now_, now_, now_});
}

void ParallelEngine::post_at_barrier(std::size_t to, Seconds t, EventFn fn,
                                     const EventPedigree& pedigree) {
  GEARSIM_REQUIRE(to < parts_.size(), "post target partition out of range");
  GEARSIM_REQUIRE(t >= horizon_,
                  "cross-partition event below the conservative horizon");
  lane(to, parts_.size()).add(t, std::move(fn), pedigree);
}

void ParallelEngine::drain_mailboxes() {
  const std::size_t p = parts_.size();
  for (std::size_t to = 0; to < p; ++to) {
    for (std::size_t from = 0; from <= p; ++from) {
      EventBatch& batch = lane(to, from);
      if (!batch.empty()) parts_[to]->schedule_batch(batch);
    }
  }
}

void ParallelEngine::run() {
  GEARSIM_REQUIRE(!running_, "ParallelEngine::run is not reentrant");
  running_ = true;
  const auto threads = static_cast<std::size_t>(pool_.threads());
  std::vector<std::exception_ptr> errors(parts_.size());

  for (;;) {
    // Mailboxes are empty here (drained after every window), so the
    // earliest pending event over all partition queues is the true
    // global minimum.
    bool any = false;
    Seconds start{0.0};
    for (auto& part : parts_) {
      if (!part->has_pending()) continue;
      const Seconds t = part->next_event_time();
      if (!any || t < start) start = t;
      any = true;
    }
    if (!any) break;
    now_ = start;
    horizon_ = start + lookahead_;

    // One window: worker w runs partitions w, w+threads, ...  Errors are
    // recorded per partition and the lowest-indexed one rethrown below,
    // so the surfaced error does not depend on the thread count.
    pool_.run([&](int w) {
      for (std::size_t p = static_cast<std::size_t>(w); p < parts_.size();
           p += threads) {
        try {
          parts_[p]->run_window(horizon_);
        } catch (...) {
          errors[p] = std::current_exception();
        }
      }
    });
    ++windows_;
    for (auto& error : errors) {
      if (error) {
        running_ = false;
        std::rethrow_exception(std::exchange(error, nullptr));
      }
    }

    if (barrier_hook_) barrier_hook_();
    drain_mailboxes();
  }

  running_ = false;
  for (const auto& part : parts_) part->check_deadlock();
}

void ParallelEngine::terminate_processes() {
  for (auto& part : parts_) part->terminate_processes();
  // Undelivered mailbox posts hold callables too — destroy them now,
  // while their referents are still alive (same reasoning as the queue
  // clear in Engine::terminate_processes).
  for (auto& batch : lanes_) batch.clear();
}

std::uint64_t ParallelEngine::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& part : parts_) n += part->events_executed();
  return n;
}

std::uint64_t ParallelEngine::event_set_hash() const {
  std::uint64_t h = 0;
  for (const auto& part : parts_) h += part->event_set_hash();
  return h;
}

std::uint64_t ParallelEngine::pool_inline_events() const {
  std::uint64_t n = 0;
  for (const auto& part : parts_) n += part->pool_inline_events();
  return n;
}

std::uint64_t ParallelEngine::pool_fallback_allocs() const {
  std::uint64_t n = 0;
  for (const auto& part : parts_) n += part->pool_fallback_allocs();
  return n;
}

}  // namespace gearsim::sim
