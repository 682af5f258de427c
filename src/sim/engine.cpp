#include "sim/engine.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <system_error>
#include <utility>

#include "util/log.hpp"

// Sanitizers must be told about every stack switch, or ASAN misreads the
// fiber stacks as overflows of the thread stack and TSAN loses the
// happens-before edge a switch carries.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace gearsim::sim {

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

namespace {

/// Usable stack per process.  Rank bodies are shallow (workload skeleton
/// -> mpi::Comm -> engine): the deepest any test or workload reaches is
/// 8 KiB in a Release build and 12 KiB under ASAN.  The stack is address
/// space until touched, so the wide margin is cheap.
constexpr std::size_t kStackBytes = std::size_t{256} << 10;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

struct Process::Fiber {
  ucontext_t context{};  // The body's registers while it is parked.
  ucontext_t caller{};   // The resume() that entered it; rewritten per resume.
  void* mapping = nullptr;  // One guard page, then the stack.
  std::size_t mapping_bytes = kStackBytes + page_bytes();
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;  // The body's ASAN fake stack while parked.
  const void* caller_bottom = nullptr;  // The resuming thread's stack.
  std::size_t caller_size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber = nullptr;
  void* tsan_caller = nullptr;
#endif

  explicit Fiber(Process* owner) {
    // MAP_NORESERVE and no zero-fill: pages are committed on first touch,
    // so a parked rank costs the stack depth it reached, not kStackBytes.
    mapping = ::mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (mapping == MAP_FAILED) {
      const int error = errno;
      throw std::system_error(error, std::generic_category(),
                              "mapping the stack of process " + owner->name_);
    }
    // The lowest page (stacks grow down) faults on overflow instead of
    // writing into whatever is mapped below.
    if (::mprotect(mapping, page_bytes(), PROT_NONE) != 0) {
      const int error = errno;
      ::munmap(mapping, mapping_bytes);
      throw std::system_error(error, std::generic_category(),
                              "guarding the stack of process " + owner->name_);
    }
    ::getcontext(&context);
    context.uc_stack.ss_sp = stack_bottom();
    context.uc_stack.ss_size = kStackBytes;
    context.uc_link = nullptr;  // entry() never returns.
    const std::uint64_t self = reinterpret_cast<std::uintptr_t>(owner);
    ::makecontext(&context, reinterpret_cast<void (*)()>(&Process::entry), 2,
                  static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self));
#if defined(__SANITIZE_THREAD__)
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ~Fiber() {
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan_fiber);
#endif
    ::munmap(mapping, mapping_bytes);
  }

  [[nodiscard]] char* stack_bottom() const {
    return static_cast<char*>(mapping) + page_bytes();
  }

  /// Caller side: run the body until it switches out.
  void switch_in() {
#if defined(__SANITIZE_ADDRESS__)
    void* caller_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&caller_fake_stack, stack_bottom(),
                                   kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
    tsan_caller = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
    ::swapcontext(&caller, &context);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(caller_fake_stack, nullptr, nullptr);
#endif
  }

  /// Fiber side: return to the caller of switch_in().  A finished body
  /// jumps out for good and leaves its context unsaved.
  void switch_out(bool finished) {
#if defined(__SANITIZE_ADDRESS__)
    // No save slot for a finished body: ASAN then frees its fake stack.
    __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack,
                                   caller_bottom, caller_size);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(tsan_caller, 0);
#endif
    if (finished) ::setcontext(&caller);
    ::swapcontext(&context, &caller);
    entered();
  }

  /// Fiber side, after every switch in: learn which stack to return to.
  void entered() {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &caller_bottom, &caller_size);
#endif
  }
};

Process::Process(Engine& engine, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_(std::make_unique<Fiber>(this)) {}

// Engine::~Engine terminates live processes before destroying them, so by
// now the body has finished and its fiber has been released.
Process::~Process() = default;

Seconds Process::now() const { return engine_.now(); }

void Process::entry(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Process*>(
      static_cast<std::uintptr_t>((std::uint64_t{hi} << 32) | lo));
  self->fiber_->entered();
  if (!self->terminate_requested_) {
    try {
      self->state_ = State::kRunning;
      self->body_(*self);
    } catch (const ProcessTerminated&) {
      // Engine teardown: unwind silently.
    } catch (...) {
      std::exception_ptr& slot = self->engine_.process_error_;
      if (!slot) slot = std::current_exception();
    }
  }
  self->state_ = State::kFinished;
  self->fiber_->switch_out(/*finished=*/true);
  std::abort();  // Unreachable: a finished fiber is never resumed.
}

void Process::resume() {
  if (engine_.m_switches_ != nullptr) engine_.m_switches_->add();
  fiber_->switch_in();
  // A finished body needs its stack no longer; give it back right away.
  if (state_ == State::kFinished) fiber_.reset();
}

void Process::yield_to_engine() {
  fiber_->switch_out(/*finished=*/false);
  if (terminate_requested_) throw ProcessTerminated{};
  state_ = State::kRunning;
}

void Process::delay(Seconds d) {
  GEARSIM_REQUIRE(state_ == State::kRunning, "delay() outside process body");
  GEARSIM_REQUIRE(d.value() >= 0.0, "negative delay");
  state_ = State::kDelayed;
  engine_.schedule_after(d, [this] { resume(); });
  yield_to_engine();
}

void Process::block() {
  GEARSIM_REQUIRE(state_ == State::kRunning, "block() outside process body");
  state_ = State::kBlocked;
  yield_to_engine();
}

void Process::wake() {
  GEARSIM_REQUIRE(state_ == State::kBlocked,
                  "wake() targets a process that is not blocked");
  state_ = State::kReady;
  engine_.schedule_at(engine_.now(), [this] { resume(); });
}

void Process::wake(EventBatch& into) {
  GEARSIM_REQUIRE(state_ == State::kBlocked,
                  "wake() targets a process that is not blocked");
  state_ = State::kReady;
  into.add(engine_.now(), [this] { resume(); });
}

void Process::terminate() {
  if (state_ == State::kFinished) return;
  terminate_requested_ = true;
  // A parked body throws ProcessTerminated out of its yield and unwinds;
  // one never entered skips its body.  Either way it finishes.  Not a
  // counted switch: teardown is no simulation work.
  fiber_->switch_in();
  if (state_ == State::kFinished) fiber_.reset();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::~Engine() { terminate_processes(); }

void Engine::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_events_ = nullptr;
    m_spawned_ = nullptr;
    m_switches_ = nullptr;
    m_queue_high_water_ = nullptr;
    m_pool_inline_ = nullptr;
    m_pool_fallback_ = nullptr;
    return;
  }
  m_events_ = &metrics->counter("sim.engine.events_dispatched");
  m_spawned_ = &metrics->counter("sim.engine.processes_spawned");
  m_switches_ = &metrics->counter("sim.engine.process_switches");
  m_queue_high_water_ = &metrics->gauge("sim.engine.queue_high_water");
  m_pool_inline_ = &metrics->counter("sim.engine.pool.inline_events");
  m_pool_fallback_ = &metrics->counter("sim.engine.pool.fallback_allocs");
}

void Engine::terminate_processes() {
  // Unwind the process fibers first — their stack destructors may
  // schedule or reference nothing, but they must not observe a
  // half-destroyed queue — then destroy the dropped pending events while
  // the objects their captures reference (world, meters, stack locals of
  // the aborted run) are still alive.  Leaving them for ~Engine is the
  // bug this ordering fixes: member destruction runs in reverse
  // declaration order, so processes_ (and any later-declared stack
  // objects the captures point at) would already be gone when the pooled
  // callables finally died.
  for (auto& p : processes_) p->terminate();
  queue_.clear();
}

void Engine::schedule_at(Seconds t, EventFn fn) {
  GEARSIM_REQUIRE(t >= now_, "event scheduled in the past");
  count_pool_path(fn.on_heap());
  queue_.push(t, std::move(fn));
  if (m_queue_high_water_ != nullptr) {
    m_queue_high_water_->set(static_cast<double>(queue_.size()));
  }
}

void Engine::schedule_after(Seconds dt, EventFn fn) {
  GEARSIM_REQUIRE(dt.value() >= 0.0, "negative event delay");
  schedule_at(now_ + dt, std::move(fn));
}

void Engine::schedule_batch(EventBatch& batch) {
  batch.visit_meta([this](Seconds t, bool on_heap) {
    GEARSIM_REQUIRE(t >= now_, "event scheduled in the past");
    count_pool_path(on_heap);
  });
  queue_.push_batch(batch);
  if (m_queue_high_water_ != nullptr) {
    m_queue_high_water_->set(static_cast<double>(queue_.size()));
  }
}

void Engine::count_pool_path(bool on_heap) {
  if (on_heap) {
    ++pool_fallback_allocs_;
    if (m_pool_fallback_ != nullptr) m_pool_fallback_->add();
  } else {
    ++pool_inline_events_;
    if (m_pool_inline_ != nullptr) m_pool_inline_->add();
  }
}

Process& Engine::make_process(std::string name,
                             std::function<void(Process&)> body) {
  processes_.push_back(std::unique_ptr<Process>(
      new Process(*this, std::move(name), std::move(body))));
  Process& ref = *processes_.back();
  ref.state_ = Process::State::kReady;
  if (m_spawned_ != nullptr) m_spawned_->add();
  return ref;
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body) {
  Process& ref = make_process(std::move(name), std::move(body));
  schedule_at(now_, [&ref] { ref.resume(); });
  return ref;
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body,
                       EventBatch& into) {
  Process& ref = make_process(std::move(name), std::move(body));
  into.add(now_, [&ref] { ref.resume(); });
  return ref;
}

void Engine::dispatch_one() {
  EventQueue::Popped ev = queue_.pop();
  now_ = ev.time;
  ++events_executed_;
  // Dispatch-order fingerprint: the time identifies *when*, the insertion
  // seq identifies *which* of several simultaneous events ran — together
  // they pin the exact execution order of the whole run.
  order_hash_ = util::fnv1a_mix(order_hash_,
                                std::bit_cast<std::uint64_t>(ev.time.value()));
  order_hash_ = util::fnv1a_mix(order_hash_, ev.seq);
  // Order-independent companion: a commutative (wrapping-sum) fold over
  // per-event time hashes.
  event_set_hash_ += util::fnv1a_mix(
      util::kFnv1aOffset, std::bit_cast<std::uint64_t>(ev.time.value()));
  if (m_events_ != nullptr) m_events_->add();
  ev.fn();
}

void Engine::check_deadlock() const {
  for (const auto& p : processes_) {
    if (p->state() == Process::State::kBlocked) {
      std::string blocked;
      for (const auto& q : processes_) {
        if (q->state() == Process::State::kBlocked) {
          if (!blocked.empty()) blocked += ", ";
          blocked += q->name();
        }
      }
      throw SimulationError(
          "simulation deadlock: event queue empty with blocked processes [" +
          blocked + "] at t=" + std::to_string(now().value()) + "s");
    }
  }
}

namespace {

/// Marks an engine as running for one run loop and clears the mark on
/// every exit, including an exception escaping a body or an event, so the
/// engine stays reusable after a failed run.
class RunningScope {
 public:
  explicit RunningScope(bool& running) : running_(running) {
    GEARSIM_REQUIRE(!running_, "Engine::run is not reentrant");
    running_ = true;
  }
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;
  ~RunningScope() { running_ = false; }

 private:
  bool& running_;
};

}  // namespace

void Engine::run() {
  {
    const RunningScope scope(running_);
    while (!queue_.empty()) {
      dispatch_one();
      rethrow_process_error();
    }
  }
  check_deadlock();
}

void Engine::run_until(Seconds t) {
  {
    const RunningScope scope(running_);
    while (!queue_.empty() && queue_.next_time() <= t) {
      dispatch_one();
      rethrow_process_error();
    }
  }
  if (now_ < t && queue_.empty()) now_ = t;
}

}  // namespace gearsim::sim
