// Ordered parallel-for over independent work items.
//
// The sweep layer (cluster::ExperimentRunner, exec::SweepRunner) fans
// embarrassingly-parallel simulation points out over a fixed pool of
// worker threads.  Determinism contract: `fn(i)` must be a pure function
// of `i` and of state that no other item mutates — every simulation point
// derives its RNG streams from its own (config, point) tuple, never from
// an Rng shared across items — so the results are bit-identical for any
// worker count and any scheduling order.  parallel_for_ordered only
// decides *where* each item runs, never *what* it computes.
#pragma once

#include <cstddef>
#include <functional>

namespace gearsim {

/// Default worker count for sweep fan-out: the GEARSIM_SWEEP_JOBS
/// environment variable when set to a positive integer, else 1 (serial).
/// Serial-by-default keeps library entry points free of surprise threads;
/// CLI/bench front ends pass an explicit job count instead.
int default_jobs();

/// Clamp a requested job count: 0 means "use default_jobs()", negative
/// means "use the hardware concurrency".
int resolve_jobs(int jobs);

/// Run fn(0) .. fn(n-1) across at most `jobs` worker threads.  Items are
/// claimed from an atomic counter, so completion order is arbitrary, but
/// callers index their output arrays by `i`, which restores request
/// order.  `jobs <= 1` (after resolve_jobs) runs everything inline on the
/// calling thread in index order.
///
/// Failure semantics: the first exception stops workers from *claiming*
/// further items (already-claimed items run to completion), every worker
/// is joined, and then the exception from the lowest-index failing item
/// is rethrown on the calling thread.  Because items are claimed in
/// index order, the rethrown exception is exactly the one a serial loop
/// would have hit first; items above the failing range may be skipped.
/// Nothing runs — and nothing writes into caller state — after the
/// rethrow, so the caller may immediately reuse its buffers or call
/// parallel_for_ordered again (per-job isolation with no abort lives a
/// level up, in exec::SweepRunner::supervise).
void parallel_for_ordered(int jobs, std::size_t n,
                          const std::function<void(std::size_t)>& fn);

}  // namespace gearsim
