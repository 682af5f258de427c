// Microbenchmark for the rebuilt event kernel: queue throughput across a
// depth sweep (1e3..1e7), allocations per event through an instrumented
// global allocator, and the EventFn capture-pool path counts.
//
// Wall-clock throughput goes into the `wall` section (machine-dependent,
// never gated).  The gated deterministic metrics are the properties the
// kernel rewrite exists to guarantee:
//   * engine.allocs_per_event_steady — heap allocations per push/pop pair
//     over 1M ops of churn after a 200k-op warm-up.  Not 0: churn pops at
//     t and pushes at t + 1 s, so over the first 100 s of simulated time
//     the initial 100-s spread of keys is squeezed into a 1-s window.
//     Band occupancy climbs from 8 keys toward hundreds within one epoch,
//     and each allocation is a band vector doubling (256 B up to 8 KiB).
//     The value is deterministic (0.020306), so any regression (a
//     capture outgrowing the inline buffer, the pool losing its free
//     list) still moves it.
//   * engine.allocs_per_event_converged — the same churn once that
//     transient has passed (>= 10.5M warm-up ops): exactly 0.
//   * engine.pool.inline_events / engine.pool.fallback_allocs — exact
//     capture-path counts for a fixed scenario.
//   * jacobi8.pool_fallback_allocs — fallback allocations across a real
//     8-node Jacobi experiment, read from the obs registry; proves the
//     inline buffer covers every capture the library's own layers create.
//   * jacobi8.process_switches / jacobi8.event_order_hash_low32 — the
//     same run's process resumes and dispatch-order fingerprint, gated
//     exactly: a change to how ranks are resumed must leave both alone.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "cluster/experiment.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "workloads/jacobi.hpp"

// --- instrumented global allocator -----------------------------------------
// Counts every operator-new so the bench can pin allocs/event (0 once
// the queue's band capacities have converged).  Relaxed atomics: the
// bench is single-threaded where it matters, and the counter is read
// only between phases.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace gearsim;

namespace {

template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Steady-state churn at a fixed depth: pop the earliest event, push a
/// replacement one second later.  Returns events processed (== ops).
std::uint64_t churn(sim::EventQueue& q, int ops) {
  for (int i = 0; i < ops; ++i) {
    sim::EventQueue::Popped p = q.pop();
    keep(p.seq);
    q.push(p.time + seconds(1.0), [] {});
  }
  return static_cast<std::uint64_t>(ops);
}

int run(bench::BenchContext& ctx) {
  // --- throughput sweep: depth 1e3 .. 1e7 --------------------------------
  for (const int depth : {1'000, 10'000, 100'000, 1'000'000, 10'000'000}) {
    sim::EventQueue q;
    for (int i = 0; i < depth; ++i) {
      q.push(seconds(((i * 7919LL) % depth) * 1e-3), [] {});
    }
    // Deep queues churn fewer ops so the sweep stays fast end to end.
    const int ops = depth <= 100'000 ? 2'000'000 : 500'000;
    churn(q, ops / 10);  // Warm the pool and the cache.
    const double secs = bench::time_op([&] { churn(q, ops); });
    const double events_per_sec = ops / secs;
    const std::string name = "queue_churn_depth_" + std::to_string(depth);
    ctx.wall_metric(name + ".events_per_sec", events_per_sec);
    ctx.wall_metric(name + ".ns_per_event", secs / ops * 1e9);
    std::cout << name << ": " << events_per_sec << " events/sec\n";
  }

  // --- allocations per event, steady state -------------------------------
  // Keys move inside band vectors recycled across epochs and captures
  // live inline in pooled slots, so only band vectors growing toward
  // their final capacity allocate.  After 200k warm-up ops they are
  // still growing (churn compresses the initial spread, raising band
  // occupancy), so the first arm reads ~0.02; after >= 10.5M ops the
  // capacities have converged and a push/pop pair touches the allocator
  // zero times.  Both are deterministic, so the gates pin them.
  {
    const auto allocs_per_event = [](sim::EventQueue& q, int ops) {
      const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
      const std::uint64_t events = churn(q, ops);
      const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
      return static_cast<double>(after - before) /
             static_cast<double>(events);
    };
    sim::EventQueue q;
    const int depth = 100'000;
    for (int i = 0; i < depth; ++i) {
      q.push(seconds(((i * 7919LL) % depth) * 1e-3), [] {});
    }
    churn(q, 200'000);  // Warm-up: grow pool/bands/free-list.
    const double steady = allocs_per_event(q, 1'000'000);
    ctx.metric("engine.allocs_per_event_steady", steady);
    std::cout << "steady-state allocs/event: " << steady << "\n";
    churn(q, 9'300'000);  // 10.5M ops in all: past the transient.
    const double converged = allocs_per_event(q, 1'000'000);
    ctx.metric("engine.allocs_per_event_converged", converged);
    std::cout << "converged allocs/event: " << converged << "\n";
  }

  // --- capture-pool paths: fixed scenario --------------------------------
  // 1000 small captures dispatch inline; 10 oversized captures take the
  // heap fallback.  Exact counts, gated.
  {
    sim::Engine engine;
    struct Oversized {
      double payload[12] = {};  // 96 bytes > EventFn::kInlineCapacity.
    };
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(seconds(i), [] {});
    }
    for (int i = 0; i < 10; ++i) {
      Oversized big;
      big.payload[0] = i;
      engine.schedule_at(seconds(2000 + i), [big] { keep(big.payload[0]); });
    }
    engine.run();
    ctx.metric("engine.pool.inline_events",
               static_cast<double>(engine.pool_inline_events()));
    ctx.metric("engine.pool.fallback_allocs",
               static_cast<double>(engine.pool_fallback_allocs()));
  }

  // --- fallback allocations across a real experiment ---------------------
  // The kernel rewrite sized the inline buffer for every capture the
  // library creates; an 8-node Jacobi run must therefore report zero
  // fallbacks through the observability counters.
  {
    const cluster::ExperimentRunner runner(cluster::athlon_cluster());
    const workloads::Jacobi jacobi;
    obs::MetricsRegistry registry;
    cluster::RunOptions options;
    options.metrics = &registry;
    const cluster::RunResult r = runner.run(jacobi, 8, options);
    keep(r.wall);
    ctx.metric("jacobi8.pool_fallback_allocs",
               static_cast<double>(
                   registry.counter("sim.engine.pool.fallback_allocs").value()));
    ctx.metric("jacobi8.pool_inline_events",
               static_cast<double>(
                   registry.counter("sim.engine.pool.inline_events").value()));
    ctx.metric("jacobi8.process_switches",
               static_cast<double>(
                   registry.counter("sim.engine.process_switches").value()));
    ctx.metric("jacobi8.event_order_hash_low32",
               static_cast<double>(r.event_order_hash & 0xffffffffULL));
  }

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "microbench_engine", run);
}
