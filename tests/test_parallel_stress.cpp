// Concurrency stress for the shared structures behind the api::Engine:
// util/parallel's parallel_for_workers (the one fan-out primitive: per-call
// threads claiming indices from a shared counter), core::GraphCache
// (build-once graphs behind per-key locks), and the obs registry/tracer
// (sharded metric cells, per-thread span lanes).  These suites are the
// primary target of the ThreadSanitizer CI job — they are written to
// maximize contention, not coverage: many tiny calls, many threads racing
// one key, exceptions thrown mid-call.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/graph_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace llamp {
namespace {

constexpr std::uint64_t kS = 256 * 1024;  // the default rendezvous threshold

// ---------------------------------------------------------------------------
// parallel_for_workers.  Its determinism contract — fn(i) may depend only
// on i — is pinned under exactly the conditions that would expose a
// violation: a strongly imbalanced per-index cost, several thread counts,
// and TSan (this file is part of the ThreadSanitizer CI job).
// ---------------------------------------------------------------------------

TEST(ParallelForWorkers, CallerRunsAsWorkerZero) {
  // The caller is worker 0 and each call starts at most
  // effective_threads - 1 threads of its own.
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for_workers(64, 4, [&](int w, std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    EXPECT_EQ(w == 0, self == caller);
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(self);
  });
  EXPECT_LE(ids.size(), 4u);
  std::vector<int> workers;
  parallel_for_workers(5, 1, [&](int w, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    workers.push_back(w);
  });
  EXPECT_EQ(workers, std::vector<int>(5, 0));
}

TEST(ParallelForWorkers, ManyTinyCallsBackToBack) {
  // Hundreds of small calls with varying widths: every call starts and
  // joins its own threads, and no worker id reaches past the call's width.
  for (int round = 0; round < 400; ++round) {
    std::atomic<long long> sum{0};
    const std::size_t n = 1 + static_cast<std::size_t>(round % 37);
    const int threads = 1 + round % 8;
    const int width = effective_threads(n, threads);
    parallel_for_workers(n, threads, [&](int w, std::size_t i) {
      EXPECT_LT(w, width);
      sum.fetch_add(static_cast<long long>(i) + 1, std::memory_order_relaxed);
    });
    const long long nn = static_cast<long long>(n);
    ASSERT_EQ(sum.load(), nn * (nn + 1) / 2) << "round " << round;
  }
}

// The ThreadPool*, ThreadPoolStress and ChunkedWorkersStress suites keep
// the names they had when the persistent pool and the chunk-claiming loop
// were separate implementations.  Each case now runs parallel_for_workers,
// the one scheduler that replaced both, at the widths and loads the old
// case used.

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> seen(101);
  parallel_for_workers(seen.size(), 4, [&](int worker, std::size_t i) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    seen[i].fetch_add(1);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, PropagatesExceptionsAndSurvivesThem) {
  EXPECT_THROW(parallel_for_workers(32, 4,
                                    [&](int, std::size_t i) {
                                      if (i == 17) throw Error("boom");
                                    }),
               Error);
  // The next call after a failed one is unaffected.
  std::atomic<int> count{0};
  parallel_for_workers(8, 4, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolStress, ExceptionStormLeavesPoolServiceable) {
  // Alternate failing and clean calls: a failing call joins every worker
  // and rethrows exactly one exception on the caller; the next call is
  // unaffected.
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ran{0};
    try {
      parallel_for_workers(64, 4, [&](int, std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (round % 2 == 0 && i % 19 == 3) throw Error("storm");
      });
      EXPECT_EQ(round % 2, 1) << "even rounds must throw";
      EXPECT_EQ(ran.load(), 64);
    } catch (const Error& e) {
      EXPECT_EQ(round % 2, 0) << "odd rounds must not throw";
      EXPECT_STREQ(e.what(), "storm");
    }
  }
  std::atomic<int> count{0};
  parallel_for_workers(32, 4, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolStress, WorkerScratchStaysPerWorker) {
  // Per-worker accumulators indexed by the worker id: if two threads ever
  // shared a worker index concurrently, TSan would flag the unsynchronized
  // writes and the totals would drift.
  constexpr int kWorkers = 6;
  for (int round = 0; round < 50; ++round) {
    std::vector<long long> per_worker(kWorkers, 0);
    parallel_for_workers(257, kWorkers, [&](int w, std::size_t i) {
      per_worker[static_cast<std::size_t>(w)] += static_cast<long long>(i) + 1;
    });
    long long total = 0;
    for (const long long v : per_worker) total += v;
    ASSERT_EQ(total, 257LL * 258 / 2);
  }
}

TEST(ChunkedWorkersStress, CoversEveryIndexExactlyOnce) {
  // One index per claim maximizes contention on the shared counter; a
  // double grant or a skipped tail would show up as a count != 1.
  std::vector<std::atomic<int>> seen(1013);
  parallel_for_workers(seen.size(), 8, [&](int w, std::size_t i) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 8);
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) ASSERT_EQ(s.load(), 1);
}

TEST(ChunkedWorkersStress, PerWorkerScratchStaysPerWorker) {
  // The worker id is unique per concurrent thread, so unsynchronized
  // per-worker accumulators are safe (TSan verifies the claim).
  constexpr int kWorkers = 6;
  std::vector<long long> per_worker(kWorkers, 0);
  parallel_for_workers(999, kWorkers, [&](int w, std::size_t i) {
    per_worker[static_cast<std::size_t>(w)] += static_cast<long long>(i) + 1;
  });
  long long total = 0;
  for (const long long v : per_worker) total += v;
  EXPECT_EQ(total, 999LL * 1000 / 2);
}

TEST(ChunkedWorkersStress, PropagatesExactlyOneException) {
  // Every call throws from several indices on several workers; the caller
  // sees exactly one of those exceptions.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    try {
      parallel_for_workers(256, 8, [&](int, std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 41 == 7) throw Error("chunk storm");
      });
      FAIL() << "must throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "chunk storm");
    }
  }
}

// A deliberately lopsided per-index computation: indices divisible by 16
// cost ~200x the rest.  The result for index i is a fixed sequence of FP
// ops depending only on i — any scheduler that leaks state across indices
// or workers changes the bytes.
double imbalanced_value(std::size_t i) {
  const int iters = (i % 16 == 0) ? 4000 : 20;
  double x = static_cast<double>(i) + 1.0;
  for (int k = 0; k < iters; ++k) {
    x = x * 1.0000001 + 1.0 / x;
  }
  return x;
}

TEST(ParallelForWorkers, BitwiseIdenticalAcrossThreadCounts) {
  constexpr std::size_t kN = 1200;
  std::vector<double> ref(kN, 0.0);
  parallel_for_workers(kN, 1, [&](int, std::size_t i) {
    ref[i] = imbalanced_value(i);
  });
  for (const int threads : {2, 8}) {
    std::vector<double> got(kN, 0.0);
    parallel_for_workers(kN, threads, [&](int, std::size_t i) {
      got[i] = imbalanced_value(i);
    });
    ASSERT_EQ(got, ref) << "threads=" << threads;
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// This process's current virtual size in bytes (VmSize), or 0.
std::size_t virtual_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

TEST(ParallelForWorkers, FailedThreadStartsOnlyMeanFewerWorkers) {
  // Under a tight address-space limit most of 4096 thread stacks cannot be
  // mapped.  The call must neither terminate nor lose an index: the
  // threads that did start, and the caller, claim the rest.
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory needs the address space";
  const std::size_t vm = virtual_bytes();
  if (vm == 0) GTEST_SKIP() << "no /proc/self/status";
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &saved), 0);
  constexpr std::size_t kN = 4096;
  std::vector<std::atomic<int>> seen(kN);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(vm + (std::size_t{256} << 20));
  if (saved.rlim_cur != RLIM_INFINITY && saved.rlim_cur < tight.rlim_cur) {
    tight.rlim_cur = saved.rlim_cur;
  }
  ASSERT_EQ(setrlimit(RLIMIT_AS, &tight), 0);
  parallel_for_workers(kN, static_cast<int>(kN), [&](int, std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_EQ(setrlimit(RLIMIT_AS, &saved), 0);
  for (const auto& s : seen) ASSERT_EQ(s.load(), 1);
}

// ---------------------------------------------------------------------------
// obs::Registry under contention: sharded counter cells and histogram
// shards are the engine's only metrics synchronization, so TSan gets the
// worst case — every thread hammering one handle — and the merged snapshot
// must still sum exactly.
// ---------------------------------------------------------------------------

TEST(ObsRegistryStress, ConcurrentIncrementsMergeExactly) {
  for (const int shards : {1, 4}) {
    obs::Registry reg(obs::Registry::Options{.shards = shards});
    obs::Counter hot = reg.counter("hot");
    obs::Histogram lat = reg.histogram("lat");
    constexpr std::size_t kTasks = 64;
    constexpr int kPerTask = 500;
    for (int round = 0; round < 4; ++round) {
      parallel_for_workers(kTasks, 8, [&](int, std::size_t i) {
        for (int k = 0; k < kPerTask; ++k) {
          hot.inc();
          lat.record(static_cast<double>(i % 7) + 1.0);
        }
      });
    }
    const obs::Snapshot snap = reg.snapshot();
    constexpr std::uint64_t kExpected = 4ull * kTasks * kPerTask;
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].second, kExpected) << "shards=" << shards;
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, kExpected) << "shards=" << shards;
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : snap.histograms[0].buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, kExpected);
  }
}

TEST(ObsRegistryStress, RegistrationRacesRecording) {
  // Late registration (a surface registering its own counter mid-session)
  // must coexist with hot recording on other handles: registration takes
  // the registry mutex, recording never does.
  obs::Registry reg;
  obs::Counter hot = reg.counter("hot");
  parallel_for_workers(600, 6, [&](int, std::size_t i) {
    if (i % 50 == 0) {
      obs::Counter fresh =
          reg.counter("late." + std::to_string(i / 50));
      fresh.inc();
    }
    hot.inc();
  });
  const obs::Snapshot snap = reg.snapshot();
  std::uint64_t hot_total = 0;
  std::uint64_t late_names = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "hot") hot_total = v;
    if (name.rfind("late.", 0) == 0) {
      ++late_names;
      EXPECT_EQ(v, 1u) << name;
    }
  }
  EXPECT_EQ(hot_total, 600u);
  EXPECT_EQ(late_names, 12u);
}

TEST(ObsTraceStress, ConcurrentSpansLandInPerThreadLanes) {
  obs::Tracer tracer;
  tracer.enable();
  constexpr std::size_t kTasks = 300;
  parallel_for_workers(kTasks, 6, [&](int, std::size_t) {
    const obs::SpanScope outer(tracer, "outer");
    const obs::SpanScope inner(tracer, "inner");
  });
  EXPECT_EQ(tracer.span_count(), 2 * kTasks);
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
}

// ---------------------------------------------------------------------------
// GraphCache: racing first touches of one key, and mixed warm/get traffic.
// ---------------------------------------------------------------------------

core::GraphKey small_key(double scale) {
  return core::GraphKey{"lulesh", 8, scale, kS};
}

TEST(GraphCacheStress, ConcurrentSameKeyBuildsExactlyOnce) {
  core::GraphCache cache;
  constexpr std::size_t kCallers = 16;
  std::vector<const graph::Graph*> got(kCallers, nullptr);
  const int threads = static_cast<int>(kCallers);
  parallel_for_workers(kCallers, threads, [&](int, std::size_t i) {
    got[i] = &cache.get(small_key(0.02));
  });
  for (const graph::Graph* g : got) EXPECT_EQ(g, got[0]);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.built, 1u);
  EXPECT_EQ(stats.hits, kCallers - 1);
}

TEST(GraphCacheStress, DistinctKeysBuildInParallelThenHit) {
  core::GraphCache cache;
  const std::vector<core::GraphKey> keys = {
      small_key(0.02), small_key(0.03), {"hpcg", 8, 0.02, kS},
      {"milc", 8, 0.02, kS}};
  cache.warm(keys, 8);
  EXPECT_EQ(cache.stats().built, keys.size());
  EXPECT_EQ(cache.stats().hits, 0u) << "warm() must not count hits";

  // Every post-warm get, from any thread, is a pure lookup.
  constexpr std::size_t kLookups = 64;
  std::vector<const graph::Graph*> got(kLookups, nullptr);
  parallel_for_workers(kLookups, 8, [&](int, std::size_t i) {
    got[i] = &cache.get(keys[i % keys.size()]);
  });
  EXPECT_EQ(cache.stats().built, keys.size());
  EXPECT_EQ(cache.stats().hits, kLookups);
  std::set<const graph::Graph*> distinct(got.begin(), got.end());
  EXPECT_EQ(distinct.size(), keys.size());
}

TEST(GraphCacheStress, HammerMixedColdAndWarmKeys) {
  // Threads race gets across a small key set while some keys are still
  // cold, exercising slot creation (map mutex), first-touch builds (slot
  // mutex), and hit counting all at once, engine-style.
  core::GraphCache cache;
  const std::vector<core::GraphKey> keys = {small_key(0.02), small_key(0.025),
                                            small_key(0.03)};
  std::vector<const graph::Graph*> by_key(keys.size(), nullptr);
  for (int round = 0; round < 6; ++round) {
    parallel_for_workers(48, 8, [&](int, std::size_t i) {
      const std::size_t k = i % keys.size();
      const graph::Graph& g = cache.get(keys[k]);
      ASSERT_GT(g.num_vertices(), 0u);
    });
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    by_key[k] = &cache.get(keys[k]);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.built, keys.size());
  EXPECT_EQ(stats.hits, 6u * 48u + keys.size() - stats.built);
  EXPECT_EQ(std::set<const graph::Graph*>(by_key.begin(), by_key.end()).size(),
            keys.size());
}

}  // namespace
}  // namespace llamp
