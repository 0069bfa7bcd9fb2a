#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace llamp {

int effective_threads(std::size_t n, int threads) {
  int nthreads = threads > 0
                     ? threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min<int>(nthreads, static_cast<int>(n)));
}

void parallel_for_workers(std::size_t n, int threads,
                          const std::function<void(int, std::size_t)>& fn) {
  const int nthreads = effective_threads(n, threads);
  if (nthreads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  std::vector<std::thread> pool;
  std::exception_ptr error;
  std::mutex error_mutex;
  for (int t = 0; t < nthreads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = static_cast<std::size_t>(t); i < n;
             i += static_cast<std::size_t>(nthreads)) {
          fn(t, i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

void parallel_for_workers_chunked(
    std::size_t n, int threads, std::size_t chunk,
    const std::function<void(int, std::size_t)>& fn) {
  const int nthreads = effective_threads(n, threads);
  if (nthreads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  if (chunk == 0) chunk = 1;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  std::exception_ptr error;
  std::mutex error_mutex;
  for (int t = 0; t < nthreads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (;;) {
          const std::size_t lo =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (lo >= n) return;
          const std::size_t hi = std::min(lo + chunk, n);
          for (std::size_t i = lo; i < hi; ++i) fn(t, i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_workers(n, threads,
                       [&fn](int, std::size_t i) { fn(i); });
}

ThreadPool::ThreadPool(int threads) {
  int nthreads = threads > 0
                     ? threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  nthreads = std::max(1, nthreads);
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  // The caller participates as worker 0, so a pool of size W spawns W - 1
  // threads, carrying pool-worker ids 1 .. W-1.
  for (int t = 1; t < nthreads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& th : workers_) th.join();
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    if (worker < job.nworkers) {
      const TimeNs t0 = monotonic_now();
      try {
        for (std::size_t i = static_cast<std::size_t>(worker); i < job.n;
             i += static_cast<std::size_t>(job.nworkers)) {
          (*job.fn)(worker, i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      note_slice(t0);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --remaining_;
      }
      done_.notify_one();
    }
  }
}

void ThreadPool::note_slice(TimeNs t0) {
  slices_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(static_cast<std::uint64_t>(monotonic_now() - t0),
                     std::memory_order_relaxed);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.slices = slices_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::for_workers(std::size_t n, int max_workers,
                             const std::function<void(int, std::size_t)>& fn) {
  const int cap = max_workers > 0 ? std::min(max_workers, size()) : size();
  const int nworkers = effective_threads(n, cap);
  jobs_.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(n, std::memory_order_relaxed);
  if (nworkers == 1) {
    const TimeNs t0 = monotonic_now();
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    note_slice(t0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = {n, nworkers, &fn};
    remaining_ = nworkers - 1;  // pool workers 1 .. nworkers-1
    error_ = nullptr;
    ++generation_;
  }
  wake_.notify_all();
  // The caller is worker 0; its exceptions line up with the workers' via
  // the shared error slot so the first failure wins deterministically
  // enough for reporting (the job always drains before rethrow).
  const TimeNs t0 = monotonic_now();
  try {
    for (std::size_t i = 0; i < n;
         i += static_cast<std::size_t>(nworkers)) {
      fn(0, i);
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  note_slice(t0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return remaining_ == 0; });
  if (error_) {
    const std::exception_ptr e = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace llamp
