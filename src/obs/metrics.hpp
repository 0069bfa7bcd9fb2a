#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace llamp::obs {

/// The session metrics registry (DESIGN.md §7): named counters, gauges, and
/// latency histograms behind pre-registered handles.
///
/// Contract split:
///
///  * **Registration** (`Registry::counter("name")` etc.) takes the registry
///    mutex and may allocate — it happens once, at session construction or
///    at a surface's entry point, never inside a hot path (the llamp-lint
///    `hot-metric` rule rejects string lookups inside declared hot-path
///    regions).
///  * **Recording** through a handle is wait-free on the common path: a
///    counter increment is one relaxed atomic add into a per-thread shard
///    cell, no lock, no lookup, no allocation.
///
/// Determinism: counter cells are sharded to keep concurrent increments
/// cheap, and a snapshot merges shards by exact integer summation in
/// deterministic name order — so merged counter values are independent of
/// the shard count, the thread count, and which thread bumped which shard
/// (pinned by the Obs.MergeDeterminism tests).  Histogram bucket counts
/// merge the same way; only the timing-*valued* fields (sum, min/max,
/// quantile estimates) are allowed to vary run to run, because the recorded
/// durations themselves do.  Nothing in this file may ever feed result
/// bytes: metrics are a side channel beside the golden-pinned outputs.
class Registry;

namespace detail {

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};

/// Round-robin slot allocator backing thread_shard_slot (one atomic bump
/// per thread lifetime).
std::size_t next_shard_slot();

/// This thread's stable shard slot, assigned round-robin on first use (the
/// slot is taken modulo each cell's shard count, so any shard count works).
inline std::size_t thread_shard_slot() {
  thread_local const std::size_t slot = next_shard_slot();
  return slot;
}

struct CounterCell {
  explicit CounterCell(std::size_t nshards) : shards(nshards) {}
  std::vector<PaddedCount> shards;
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

/// Log₂-spaced histogram buckets: bucket 0 holds values <= 1, bucket b in
/// [1, kBuckets-2] holds [2^(b-1), 2^b), and the last bucket overflows.
/// 2^46 ns ≈ 19.5 hours, far beyond any request latency we time.
inline constexpr std::size_t kHistogramBuckets = 48;

/// The bucket for a finite value, computed with frexp (exact at the
/// power-of-two edges, unlike a std::log2 round trip).
std::size_t histogram_bucket(double v);

struct alignas(64) HistogramShard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> nonfinite{0};
  /// sum/min/max via CAS: a shard is normally touched by one thread, so
  /// the loops almost never retry.
  std::atomic<double> sum{0.0};
  std::atomic<double> min_v{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_v{-std::numeric_limits<double>::infinity()};
  /// P² sketches (util/stats) for precise quantiles when one thread feeds
  /// the histogram (the registry reports them when exactly one shard is
  /// populated; concurrent feeds fall back to bucket interpolation).
  mutable std::mutex p2_mutex;
  P2Quantile p50{0.50};
  P2Quantile p95{0.95};
  P2Quantile p99{0.99};
};

struct HistogramCell {
  explicit HistogramCell(std::size_t nshards) : shards(nshards) {}
  std::vector<HistogramShard> shards;
  void record(double v);
};

}  // namespace detail

/// Monotonic counter handle.  Trivially copyable; a default-constructed
/// handle is a safe no-op (so instrumented code never branches on "metrics
/// configured?").
class Counter {
 public:
  Counter() = default;

  /// One relaxed array-indexed add; safe from any thread, never allocates.
  void inc(std::uint64_t n = 1) {
    if (cell_ == nullptr) return;
    auto& shards = cell_->shards;
    shards[detail::thread_shard_slot() % shards.size()].v.fetch_add(
        n, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Point-in-time value handle (cache bytes, occupancy).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void add(double d);

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Latency histogram handle: fixed log₂ buckets plus per-shard P² quantile
/// sketches.  Values are nanoseconds by convention (TimeNs durations).
class Histogram {
 public:
  Histogram() = default;

  /// Record one observation.  Non-finite values are counted separately
  /// (they would corrupt the P² markers); lock-free except the per-shard
  /// P² mutex, which is uncontended when each thread keeps its shard.
  void record(double v) {
    if (cell_ != nullptr) cell_->record(v);
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// A merged, name-sorted view of a registry (plus any values the owner
/// imports — the engine folds its cache statistics in before
/// emission, so external atomics don't need registry cells).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;      ///< finite observations (deterministic)
  std::uint64_t nonfinite = 0;  ///< rejected non-finite observations
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  ///< P² when single-shard, bucket estimate otherwise
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<std::uint64_t> buckets;  ///< merged log₂ bucket counts
};

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< sorted
  std::vector<std::pair<std::string, double>> gauges;           ///< sorted
  std::vector<HistogramSnapshot> histograms;                    ///< sorted

  /// Insert-or-assign keeping name order (for importing external stats).
  void set_counter(const std::string& name, std::uint64_t v);
  void set_gauge(const std::string& name, double v);

  /// Canonical single-line JSON: {"schema_version": 1, "counters": {...},
  /// "gauges": {...}, "histograms": {...}} with every object name-sorted.
  /// This is the payload a future `llamp serve` /metrics endpoint returns.
  /// Structure and counter values are deterministic for a fixed request
  /// sequence; gauge/histogram *values* may carry timings.
  std::string to_json() const;

  /// Human multi-line form (`llamp stats`): one "name value" line per
  /// metric, histograms as one summary line each.
  std::string to_string() const;
};

class Registry {
 public:
  struct Options {
    /// Counter/histogram shard count; <= 0 picks a fixed default.  Merged
    /// snapshots are shard-count independent, so this is purely a
    /// contention knob (1 is fine single-threaded, tests sweep it).
    int shards = 0;
  };
  Registry() : Registry(Options{}) {}
  explicit Registry(Options opts);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register-or-look-up by name.  Handles stay valid for the registry's
  /// lifetime (cells are never removed).  Takes the registry mutex — call
  /// at setup time, never in hot paths (llamp-lint: hot-metric).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Merge every cell into a name-sorted snapshot (see Snapshot).
  Snapshot snapshot() const;

  std::size_t shard_count() const { return shards_; }

 private:
  std::size_t shards_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

/// The one cache/stats line format of SolverCache::stats_string() and any
/// future stats_string(): "label: k1=v1 k2=v2 ...".  Having a single
/// formatter is the point — two caches can never drift apart again.
std::string stats_line(
    const std::string& label,
    const std::vector<std::pair<std::string, std::uint64_t>>& fields);

}  // namespace llamp::obs
