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

/// The session metrics registry (DESIGN.md §7): named counters and latency
/// histograms behind pre-registered handles.
///
/// Contract split:
///
///  * **Registration** (`Registry::counter("name")` etc.) takes the registry
///    mutex and may allocate — it happens once, at session construction or
///    at a surface's entry point, never inside a hot path (the llamp-lint
///    `hot-metric` rule rejects string lookups inside declared hot-path
///    regions).
///  * **Recording** through a handle never looks up or allocates: a counter
///    increment is one relaxed atomic add, a histogram observation takes
///    its cell's mutex.  Every recording site runs once per request.
///
/// Determinism: each metric has one cell, so counter values and histogram
/// counts are exact sums, independent of the thread count (pinned by the
/// ObsRegistry tests).  Only the timing-*valued* fields (sum, min/max,
/// quantile estimates) vary run to run, because the recorded durations
/// themselves do.  Nothing in this file may ever feed result bytes: metrics
/// are a side channel beside the golden-pinned outputs.
class Registry;

namespace detail {

/// Log₂-spaced histogram buckets: bucket 0 holds values <= 1, bucket b in
/// [1, kBuckets-2] holds [2^(b-1), 2^b), and the last bucket overflows.
/// 2^46 ns ≈ 19.5 hours, far beyond any request latency we time.
inline constexpr std::size_t kHistogramBuckets = 48;

/// The bucket for a finite value, computed with frexp (exact at the
/// power-of-two edges, unlike a std::log2 round trip).
std::size_t histogram_bucket(double v);

/// One histogram: every field under one mutex.
struct HistogramCell {
  void record(double v);

  std::mutex mutex;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t nonfinite = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// P² sketches (util/stats): exact up to five observations.
  P2Quantile p50{0.50};
  P2Quantile p95{0.95};
  P2Quantile p99{0.99};
};

}  // namespace detail

/// Monotonic counter handle.  Trivially copyable; a default-constructed
/// handle is a safe no-op (so instrumented code never branches on "metrics
/// configured?").
class Counter {
 public:
  Counter() = default;

  /// One relaxed add; safe from any thread, never allocates.
  void inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Latency histogram handle: fixed log₂ buckets plus P² quantile sketches.
/// Values are nanoseconds by convention (TimeNs durations).
class Histogram {
 public:
  Histogram() = default;

  /// Record one observation.  Non-finite values are counted separately
  /// (they would corrupt the P² markers).
  void record(double v) {
    if (cell_ != nullptr) cell_->record(v);
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// A name-sorted view of a registry (plus any values the owner
/// imports — the engine folds its cache statistics in before
/// emission, so external atomics don't need registry cells).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;      ///< finite observations (deterministic)
  std::uint64_t nonfinite = 0;  ///< rejected non-finite observations
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  ///< P² estimates
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<std::uint64_t> buckets;  ///< log₂ bucket counts
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
  /// This is the payload `llamp serve`'s /metrics endpoint returns.
  /// Structure and counter values are deterministic for a fixed request
  /// sequence; gauge/histogram *values* may carry timings.
  std::string to_json() const;

  /// Human multi-line form (`llamp stats`): one "name value" line per
  /// metric, histograms as one summary line each.
  std::string to_string() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register-or-look-up by name.  Handles stay valid for the registry's
  /// lifetime (cells are never removed).  Takes the registry mutex — call
  /// at setup time, never in hot paths (llamp-lint: hot-metric).
  Counter counter(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Read every cell into a name-sorted snapshot (see Snapshot).
  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>>
      counters_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

/// The one cache/stats line format of SolverCache::stats_string() and any
/// future stats_string(): "label: k1=v1 k2=v2 ...".  Having a single
/// formatter is the point — two caches can never drift apart again.
std::string stats_line(
    const std::string& label,
    const std::vector<std::pair<std::string, std::uint64_t>>& fields);

}  // namespace llamp::obs
