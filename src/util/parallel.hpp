#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/time.hpp"

namespace llamp {

/// The number of workers parallel_for / parallel_for_workers will actually
/// use for `n` jobs with a requested thread count: `threads` <= 0 means the
/// hardware concurrency, the pool never exceeds `n` workers, and the result
/// is always >= 1.  Callers that keep per-worker state (e.g. one solver
/// workspace per worker) size it with this.
int effective_threads(std::size_t n, int threads);

/// Run fn(0), ..., fn(n-1) across a pool of worker threads, striding the
/// index range so consecutive indices land on different workers (the LP
/// solves of a sweep have similar cost, so striding balances well).
///
/// `threads` <= 0 uses the hardware concurrency; the pool never exceeds `n`
/// workers, and n <= 1 or threads == 1 degrades to a plain loop on the
/// calling thread.  The first exception thrown by any fn is rethrown on the
/// caller after all workers join.
///
/// Determinism contract: fn(i) must depend only on i (and read-only shared
/// state).  Under that contract results are independent of the thread
/// count — the property the campaign engine's byte-identical-output tests
/// pin.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

/// Like parallel_for, but hands each call its worker index: fn(worker, i)
/// with worker in [0, effective_threads(n, threads)).  All indices served
/// by one worker run sequentially on the same thread, so fn may keep
/// mutable per-worker scratch (a solve workspace, an accumulator) indexed
/// by `worker` without locking.  The determinism contract extends to that
/// scratch: results must not depend on which worker served an index.
void parallel_for_workers(std::size_t n, int threads,
                          const std::function<void(int, std::size_t)>& fn);

/// Like parallel_for_workers, but with chunked self-scheduling instead of
/// static striding: workers repeatedly claim the next `chunk` consecutive
/// indices from a shared atomic counter, so a worker that drew expensive
/// indices simply claims fewer chunks while the others keep the pool busy.
/// Use this when per-index cost is imbalanced (the Monte Carlo general
/// edge-noise path, where resampled edge factors reshape every solve);
/// striding remains the right default when costs are uniform, since it
/// touches no shared state.  `chunk` == 0 is treated as 1.
///
/// Same determinism contract as parallel_for_workers — fn(i) must depend
/// only on i and (per-worker) scratch whose effect on the result is
/// index-local — under which results are independent of the thread count
/// *and* of the race for chunks (pinned across 1/2/8 threads and TSan by
/// test_parallel_stress.cpp).
void parallel_for_workers_chunked(
    std::size_t n, int threads, std::size_t chunk,
    const std::function<void(int, std::size_t)>& fn);

/// Persistent worker pool with parallel_for_workers semantics: workers are
/// spawned once and reused across jobs, so a long-lived session (the
/// api::Engine serving many requests) pays thread start-up once instead of
/// per call.  Index distribution is identical to parallel_for_workers —
/// worker w serves indices w, w + W, w + 2W, ... with W =
/// min(size(), effective_threads(n, max_workers)) — so under the same
/// determinism contract (fn(i) depends only on i) results are independent
/// of both the pool size and which pool ran the job.
///
/// One job runs at a time per pool; for_workers is not reentrant from
/// inside fn (jobs that need nested parallelism use the free functions).
/// The first exception thrown by any fn is rethrown on the caller after
/// the job drains.
class ThreadPool {
 public:
  /// `threads` <= 0 sizes the pool to the hardware concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run fn(worker, i) for i in [0, n).  `max_workers` caps the workers
  /// used for this job (<= 0 = the whole pool); n <= 1 or a cap of 1 runs
  /// inline on the caller.  The caller thread participates as worker 0, so
  /// a pool of size W uses W threads total, matching the free functions.
  void for_workers(std::size_t n, int max_workers,
                   const std::function<void(int, std::size_t)>& fn);

  /// Cumulative pool statistics for the observability surfaces.  `jobs`
  /// and `tasks` are deterministic for a fixed call sequence (one job per
  /// for_workers call, one task per index) and so may be pinned; `slices`
  /// and `busy_ns` depend on the fan-out width and the wall clock — they
  /// feed worker-occupancy gauges, never result bytes.  Relaxed monotonic
  /// tallies, GraphCache-style: not an instantaneous cut across fields.
  struct Stats {
    std::uint64_t jobs = 0;     ///< for_workers calls, inline runs included
    std::uint64_t tasks = 0;    ///< indices executed across all jobs
    std::uint64_t slices = 0;   ///< timed per-worker job slices
    std::uint64_t busy_ns = 0;  ///< summed wall time inside job slices
  };
  Stats stats() const;

 private:
  void worker_loop(int worker);
  /// Fold one finished job slice (started at `t0`) into the tallies.
  void note_slice(TimeNs t0);

  struct Job {
    std::size_t n = 0;
    int nworkers = 0;
    const std::function<void(int, std::size_t)>* fn = nullptr;
  };

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job job_;
  std::uint64_t generation_ = 0;  ///< bumped per job; workers wake on change
  int remaining_ = 0;             ///< workers still running the current job
  bool stop_ = false;
  std::exception_ptr error_;
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace llamp
