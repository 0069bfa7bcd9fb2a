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
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto work = [&](int worker) {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(worker, i);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> started;
  try {
    started.reserve(static_cast<std::size_t>(nthreads - 1));
    for (int t = 1; t < nthreads; ++t) started.emplace_back(work, t);
  } catch (const std::exception&) {
    // Out of threads or memory: run with the workers already started.
  }
  work(0);
  for (std::thread& th : started) th.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace llamp
