#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::obs {
namespace detail {

std::size_t histogram_bucket(double v) {
  // Bucket 0 holds v <= 1 (and any negative); bucket b >= 1 holds
  // [2^(b-1), 2^b); the last bucket overflows.  frexp is exact at the
  // power-of-two edges, where a std::log2 round trip could land either
  // side depending on the libm.
  if (!(v > 1.0)) return 0;
  int exp = 0;
  (void)std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1)
  return std::min(static_cast<std::size_t>(exp), kHistogramBuckets - 1);
}

void HistogramCell::record(double v) {
  const std::lock_guard<std::mutex> lock(mutex);
  if (!std::isfinite(v)) {
    ++nonfinite;
    return;
  }
  ++buckets[histogram_bucket(v)];
  ++count;
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  p50.add(v);
  p95.add(v);
  p99.add(v);
}

}  // namespace detail

Counter Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = counters_[name];
  if (!cell) cell = std::make_unique<std::atomic<std::uint64_t>>(0);
  return Counter(cell.get());
}

Histogram Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = histograms_[name];
  if (!cell) cell = std::make_unique<detail::HistogramCell>();
  return Histogram(cell.get());
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, cell] : counters_) {
    snap.counters.emplace_back(name, cell->load(std::memory_order_relaxed));
  }
  for (const auto& [name, cell] : histograms_) {
    const std::lock_guard<std::mutex> cell_lock(cell->mutex);
    HistogramSnapshot h;
    h.name = name;
    h.count = cell->count;
    h.nonfinite = cell->nonfinite;
    h.sum = cell->sum;
    if (cell->count > 0) {
      h.min = cell->min;
      h.max = cell->max;
    }
    h.p50 = cell->p50.value();
    h.p95 = cell->p95.value();
    h.p99 = cell->p99.value();
    h.buckets.assign(cell->buckets.begin(), cell->buckets.end());
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Snapshot::set_counter(const std::string& name, std::uint64_t v) {
  const auto pos = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& a, const std::string& b) { return a.first < b; });
  if (pos != counters.end() && pos->first == name) {
    pos->second = v;
  } else {
    counters.insert(pos, {name, v});
  }
}

void Snapshot::set_gauge(const std::string& name, double v) {
  const auto pos = std::lower_bound(
      gauges.begin(), gauges.end(), name,
      [](const auto& a, const std::string& b) { return a.first < b; });
  if (pos != gauges.end() && pos->first == name) {
    pos->second = v;
  } else {
    gauges.insert(pos, {name, v});
  }
}

std::string Snapshot::to_json() const {
  std::string out = "{\"schema_version\": 1, \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += strformat("%s\"%s\": %llu", first ? "" : ", ",
                     json_escape_string(name).c_str(),
                     static_cast<unsigned long long>(v));
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += strformat("%s\"%s\": %s", first ? "" : ", ",
                     json_escape_string(name).c_str(),
                     json_double(v).c_str());
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    out += strformat(
        "%s\"%s\": {\"count\": %llu, \"nonfinite\": %llu, \"sum\": %s, "
        "\"min\": %s, \"max\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}",
        first ? "" : ", ", json_escape_string(h.name).c_str(),
        static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.nonfinite),
        json_double(h.sum).c_str(), json_double(h.min).c_str(),
        json_double(h.max).c_str(), json_double(h.p50).c_str(),
        json_double(h.p95).c_str(), json_double(h.p99).c_str());
    first = false;
  }
  out += "}}";
  return out;
}

std::string Snapshot::to_string() const {
  std::string out;
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, v] : counters) {
      out += strformat("  %-32s %llu\n", name.c_str(),
                       static_cast<unsigned long long>(v));
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, v] : gauges) {
      out += strformat("  %-32s %g\n", name.c_str(), v);
    }
  }
  if (!histograms.empty()) {
    out += "histograms:\n";
    for (const HistogramSnapshot& h : histograms) {
      const double mean =
          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      out += strformat(
          "  %-32s count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
          "min=%.1f max=%.1f\n",
          h.name.c_str(), static_cast<unsigned long long>(h.count), mean,
          h.p50, h.p95, h.p99, h.min, h.max);
    }
  }
  return out;
}

std::string stats_line(
    const std::string& label,
    const std::vector<std::pair<std::string, std::uint64_t>>& fields) {
  std::string out = label + ":";
  for (const auto& [key, value] : fields) {
    out += strformat(" %s=%llu", key.c_str(),
                     static_cast<unsigned long long>(value));
  }
  return out;
}

}  // namespace llamp::obs
