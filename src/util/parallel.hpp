#pragma once

#include <cstddef>
#include <functional>

namespace llamp {

/// The number of workers parallel_for_workers will use at most for `n` jobs
/// with a requested thread count: `threads` <= 0 means the hardware
/// concurrency, never more than `n` workers, and the result is always
/// >= 1.  Callers that keep per-worker state (e.g. one solver cursor per
/// worker) size it with this.
int effective_threads(std::size_t n, int threads);

/// Run fn(worker, i) for every i in [0, n), each exactly once, with worker
/// in [0, effective_threads(n, threads)).  The caller runs as worker 0 and
/// each call starts at most effective_threads(n, threads) - 1 threads; every
/// worker claims the next index from a shared counter, so a worker that
/// drew expensive indices simply claims fewer (the Monte Carlo edge-noise
/// path is strongly imbalanced; a sweep's solves are not, and cost the same
/// either way).  A thread that fails to start only means fewer workers: the
/// ones running claim its indices.
///
/// All indices served by one worker run sequentially on one thread, so fn
/// may keep mutable per-worker scratch (a solve cursor, an accumulator)
/// indexed by `worker` without locking.  The first exception thrown by any
/// fn is rethrown on the caller after all workers join.
///
/// Determinism contract: fn(i) must depend only on i, read-only shared
/// state and per-worker scratch whose effect on the result is index-local.
/// Under that contract results are independent of the thread count and of
/// the race for indices — the property the byte-identity walls pin.
void parallel_for_workers(std::size_t n, int threads,
                          const std::function<void(int, std::size_t)>& fn);

}  // namespace llamp
