// Tests for the observability layer (src/obs/): exact registry sums
// across thread counts, histogram bucket edges and quantile
// sketches, the shared stats_line format, Chrome trace emission, and the
// engine-level guarantees — deterministic counters for a fixed request
// sequence, and byte-identical results with metrics/tracing on or off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/request.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tools/cli_driver.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace llamp {
namespace {

// ---------------------------------------------------------------------------
// Registry: snapshots are exact sums, independent of the thread count.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, MergeDeterminismAcrossThreadCounts) {
  for (const int nthreads : {1, 3, 8}) {
    obs::Registry reg;
    obs::Counter c = reg.counter("work.items");
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&c] {
        for (int i = 0; i < 1000; ++i) c.inc();
      });
    }
    for (std::thread& t : threads) t.join();
    c.inc(42);  // bulk add folds into the same total
    const obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u) << "threads=" << nthreads;
    EXPECT_EQ(snap.counters[0].first, "work.items");
    EXPECT_EQ(snap.counters[0].second,
              static_cast<std::uint64_t>(nthreads) * 1000u + 42u)
        << "threads=" << nthreads;
  }
}

TEST(ObsRegistry, HistogramCountMergesExactlyAcrossThreads) {
  for (const int nthreads : {1, 4}) {
    obs::Registry reg;
    obs::Histogram h = reg.histogram("latency");
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&h, t] {
        for (int i = 0; i < 500; ++i) h.record(static_cast<double>(t + 1));
      });
    }
    for (std::thread& t : threads) t.join();
    const obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const obs::HistogramSnapshot& hs = snap.histograms[0];
    EXPECT_EQ(hs.count, static_cast<std::uint64_t>(nthreads) * 500u)
        << "threads=" << nthreads;
    EXPECT_EQ(hs.min, 1.0);
    EXPECT_EQ(hs.max, static_cast<double>(nthreads));
    EXPECT_EQ(hs.sum, 500.0 * nthreads * (nthreads + 1) / 2);
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : hs.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, hs.count);
  }
}

TEST(ObsRegistry, SameNameReturnsSameCell) {
  obs::Registry reg;
  obs::Counter a = reg.counter("x");
  obs::Counter b = reg.counter("x");
  a.inc();
  b.inc(2);
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 3u);
}

TEST(ObsRegistry, DefaultConstructedHandlesAreSafeNoOps) {
  obs::Counter c;
  obs::Histogram h;
  c.inc();
  h.record(3.0);  // must not crash
}

// ---------------------------------------------------------------------------
// Histogram buckets: log₂ spacing with exact power-of-two edges.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketEdges) {
  using obs::detail::histogram_bucket;
  using obs::detail::kHistogramBuckets;
  // Bucket 0 holds v <= 1 (and everything non-positive).
  EXPECT_EQ(histogram_bucket(-5.0), 0u);
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(0.5), 0u);
  EXPECT_EQ(histogram_bucket(1.0), 0u);
  // Bucket b holds [2^(b-1), 2^b): the lower edge is inclusive.
  EXPECT_EQ(histogram_bucket(1.5), 1u);
  EXPECT_EQ(histogram_bucket(2.0), 2u);
  EXPECT_EQ(histogram_bucket(3.999), 2u);
  EXPECT_EQ(histogram_bucket(4.0), 3u);
  EXPECT_EQ(histogram_bucket(1024.0), 11u);
  EXPECT_EQ(histogram_bucket(1023.999), 10u);
  // The last bucket absorbs overflow.
  EXPECT_EQ(histogram_bucket(1e30), kHistogramBuckets - 1);
}

TEST(ObsHistogram, SingleShardQuantilesAreP2Exact) {
  // The snapshot reports the P² sketches, which are exact R-7 percentiles
  // while the stream holds <= 5 observations.
  obs::Registry reg;
  obs::Histogram h = reg.histogram("lat");
  const std::vector<double> xs = {10.0, 50.0, 30.0, 20.0, 40.0};
  for (const double v : xs) h.record(v);
  const obs::Snapshot snap = reg.snapshot();
  const obs::HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_DOUBLE_EQ(hs.p50, percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(hs.p95, percentile(xs, 95.0));
  EXPECT_DOUBLE_EQ(hs.p99, percentile(xs, 99.0));
}

TEST(ObsHistogram, ConcurrentFeedsReportP2Quantiles) {
  // Two threads share one cell, so the snapshot still reports P²: exact
  // R-7 percentiles of the five observations, whichever thread fed which.
  obs::Registry reg;
  obs::Histogram h = reg.histogram("lat");
  const std::vector<double> xs = {10.0, 50.0, 30.0, 20.0, 40.0};
  std::thread a([&h, &xs] {
    for (std::size_t i = 0; i < 2; ++i) h.record(xs[i]);
  });
  std::thread b([&h, &xs] {
    for (std::size_t i = 2; i < xs.size(); ++i) h.record(xs[i]);
  });
  a.join();
  b.join();
  const obs::Snapshot snap = reg.snapshot();
  const obs::HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_EQ(hs.count, xs.size());
  EXPECT_DOUBLE_EQ(hs.p50, percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(hs.p95, percentile(xs, 95.0));
  EXPECT_DOUBLE_EQ(hs.p99, percentile(xs, 99.0));
}

TEST(ObsHistogram, NonfiniteObservationsAreCountedSeparately) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("lat");
  h.record(5.0);
  h.record(std::numeric_limits<double>::infinity());
  h.record(std::numeric_limits<double>::quiet_NaN());
  const obs::Snapshot snap = reg.snapshot();
  const obs::HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_EQ(hs.count, 1u);
  EXPECT_EQ(hs.nonfinite, 2u);
  EXPECT_EQ(hs.sum, 5.0);
  EXPECT_EQ(hs.max, 5.0);
}

// ---------------------------------------------------------------------------
// Snapshot: ordering, imports, and the canonical JSON form.
// ---------------------------------------------------------------------------

TEST(ObsSnapshot, SetCounterKeepsNameOrderAndAssigns) {
  obs::Snapshot snap;
  snap.set_counter("b", 1);
  snap.set_counter("a", 2);
  snap.set_gauge("z", 3.0);
  snap.set_gauge("y", 4.0);
  snap.set_counter("b", 5);  // re-set assigns, no duplicate
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[1].first, "b");
  EXPECT_EQ(snap.counters[1].second, 5u);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "y");
  EXPECT_EQ(snap.gauges[1].first, "z");
}

TEST(ObsSnapshot, JsonParsesAndCarriesSchemaVersion) {
  obs::Registry reg;
  reg.counter("c").inc(7);
  reg.histogram("h").record(100.0);
  const std::string json = reg.snapshot().to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos) << "single line";
  const JsonValue doc = JsonValue::parse(json);
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("schema_version"), nullptr);
  EXPECT_EQ(doc.find("schema_version")->as_number("schema_version"), 1.0);
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("c")->as_number("c"), 7.0);
  const JsonValue* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* h = hists->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_number("count"), 1.0);
}

TEST(ObsStatsLine, SharedCacheLineFormat) {
  EXPECT_EQ(obs::stats_line("graphs", {{"built", 2}, {"hits", 11}}),
            "graphs: built=2 hits=11");
  EXPECT_EQ(obs::stats_line("empty", {}), "empty:");
}

// ---------------------------------------------------------------------------
// Tracer: span recording and the Chrome trace-event emission.
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  { const obs::SpanScope s(tracer, "op"); }
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(ObsTrace, NestedSpansCarryParentIndices) {
  obs::Tracer tracer;
  tracer.enable();
  {
    const obs::SpanScope outer(tracer, "outer");
    { const obs::SpanScope inner(tracer, "inner"); }
  }
  { const obs::SpanScope root2(tracer, "root2"); }
  tracer.disable();
  EXPECT_EQ(tracer.span_count(), 3u);

  const JsonValue doc = JsonValue::parse(tracer.to_chrome_json());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const auto& arr = events->as_array("traceEvents");
  ASSERT_EQ(arr.size(), 3u);
  // Lane emission order is recording order: outer, inner, root2.
  EXPECT_EQ(arr[0].find("name")->as_string("name"), "outer");
  EXPECT_EQ(arr[0].find("ph")->as_string("ph"), "X");
  EXPECT_EQ(arr[0].find("args")->find("parent")->as_number("parent"), -1.0);
  EXPECT_EQ(arr[1].find("name")->as_string("name"), "inner");
  EXPECT_EQ(arr[1].find("args")->find("parent")->as_number("parent"), 0.0);
  EXPECT_EQ(arr[2].find("args")->find("parent")->as_number("parent"), -1.0);
  // The inner span nests inside the outer one in time as well.
  const double outer_ts = arr[0].find("ts")->as_number("ts");
  const double outer_dur = arr[0].find("dur")->as_number("dur");
  const double inner_ts = arr[1].find("ts")->as_number("ts");
  const double inner_dur = arr[1].find("dur")->as_number("dur");
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-9);
}

TEST(ObsTrace, ClearDropsSpans) {
  obs::Tracer tracer;
  tracer.enable();
  { const obs::SpanScope s(tracer, "op"); }
  EXPECT_EQ(tracer.span_count(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  const JsonValue doc = JsonValue::parse(tracer.to_chrome_json());
  EXPECT_TRUE(doc.find("traceEvents")->as_array("traceEvents").empty());
}

// ---------------------------------------------------------------------------
// Engine: deterministic counters for a fixed request sequence, and the
// byte-identity wall — observability must never change result bytes.
// ---------------------------------------------------------------------------

api::AnalyzeRequest small_analyze() {
  api::AnalyzeRequest req;
  req.app.app = "lulesh";
  req.app.ranks = 8;
  req.app.scale = 0.05;
  req.grid = {20.0, 3};
  return req;
}

std::uint64_t counter_of(const std::string& metrics_json,
                         const std::string& name) {
  const JsonValue doc = JsonValue::parse(metrics_json);
  const JsonValue* counters = doc.find("counters");
  EXPECT_NE(counters, nullptr);
  const JsonValue* v = counters->find(name);
  EXPECT_NE(v, nullptr) << "missing counter " << name;
  return v == nullptr ? 0 : v->as_unsigned(name);
}

TEST(ObsEngine, CountersAreDeterministicAcrossSessions) {
  const auto run_session = [](int threads) {
    api::Engine engine(api::Engine::Options{.threads = threads});
    (void)engine.analyze(small_analyze());
    (void)engine.analyze(small_analyze());  // same scenario: cache hit
    return engine.metrics_json();
  };
  const std::string a = run_session(1);
  const std::string b = run_session(4);
  for (const char* name :
       {"engine.requests", "engine.errors", "engine.op.analyze",
        "graph_cache.built", "graph_cache.hits", "solver_cache.built"}) {
    EXPECT_EQ(counter_of(a, name), counter_of(b, name)) << name;
  }
  EXPECT_EQ(counter_of(a, "engine.requests"), 2u);
  EXPECT_EQ(counter_of(a, "engine.errors"), 0u);
  EXPECT_EQ(counter_of(a, "engine.op.analyze"), 2u);
  EXPECT_EQ(counter_of(a, "graph_cache.built"), 1u);
  EXPECT_EQ(counter_of(a, "graph_cache.hits"), 1u);
  // A cold analyze lowers one problem (λ_G reads the latency lowering's
  // critical path); the repeat hits it.
  EXPECT_EQ(counter_of(a, "solver_cache.built"), 1u);
  // Nothing came near an entry's byte budget.
  EXPECT_EQ(counter_of(a, "solver_cache.budget_refused"), 0u);
}

TEST(ObsEngine, SnapshotCarriesUptimeAndScrapeSequence) {
  api::Engine engine(api::Engine::Options{.threads = 1});
  const std::string first = engine.metrics_json();
  const std::string second = engine.metrics_json();
  // The scrape sequence is monotonic from 1 within a session, so /metrics
  // consumers can order snapshots and detect a daemon restart.
  EXPECT_EQ(counter_of(first, "engine.metrics_seq"), 1u);
  EXPECT_EQ(counter_of(second, "engine.metrics_seq"), 2u);
  // Uptime is a gauge (timing value, never result bytes) and grows.
  const auto uptime_of = [](const std::string& json) {
    const JsonValue doc = JsonValue::parse(json);
    const JsonValue* v = doc.find("gauges")->find("engine.uptime_ns");
    EXPECT_NE(v, nullptr);
    return v == nullptr ? 0.0 : v->as_number("engine.uptime_ns");
  };
  EXPECT_GT(uptime_of(first), 0.0);
  EXPECT_GE(uptime_of(second), uptime_of(first));
  EXPECT_GE(static_cast<double>(engine.uptime_ns()), uptime_of(second));
}

TEST(ObsEngine, ErrorsAreCountedAndRethrown) {
  api::Engine engine(api::Engine::Options{.threads = 1});
  api::AnalyzeRequest bad = small_analyze();
  bad.app.app = "no-such-app";
  EXPECT_THROW((void)engine.analyze(bad), Error);
  const std::string json = engine.metrics_json();
  EXPECT_EQ(counter_of(json, "engine.requests"), 1u);
  EXPECT_EQ(counter_of(json, "engine.errors"), 1u);
}

TEST(ObsEngine, TracingDoesNotChangeResultBytes) {
  const api::AnalyzeRequest req = small_analyze();
  api::Engine plain(api::Engine::Options{.threads = 1});
  api::Engine traced(api::Engine::Options{.threads = 1});
  traced.tracer().enable();
  const std::string a = plain.analyze(req).to_json_line();
  const std::string b = traced.analyze(req).to_json_line();
  EXPECT_EQ(a, b);
  EXPECT_GT(traced.trace_json().size(), plain.trace_json().size());
}

// ---------------------------------------------------------------------------
// CLI: --trace-out leaves stdout bytes untouched and writes parseable
// Chrome JSON; `llamp stats` emits the snapshot.
// ---------------------------------------------------------------------------

struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "llamp");
  std::ostringstream out, err;
  CliResult r;
  r.code = tools::run(static_cast<int>(args.size()), args.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

TEST(ObsCli, TraceOutPreservesStdoutBytes) {
  const std::vector<const char*> base = {"mc",           "--app=lulesh",
                                         "--ranks=8",    "--scale=0.05",
                                         "--samples=16", "--seed=3"};
  const CliResult plain = run_cli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;

  const std::string trace_path = "test_obs_trace_out.json";
  std::vector<const char*> traced = base;
  const std::string flag = "--trace-out=" + trace_path;
  traced.push_back(flag.c_str());
  const CliResult with_trace = run_cli(traced);
  ASSERT_EQ(with_trace.code, 0) << with_trace.err;

  EXPECT_EQ(plain.out, with_trace.out);  // byte identity, not similarity

  const std::string trace = slurp(trace_path);
  std::remove(trace_path.c_str());
  ASSERT_FALSE(trace.empty());
  const JsonValue doc = JsonValue::parse(trace);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->as_array("traceEvents").empty());
}

TEST(ObsCli, StatsSubcommandEmitsSnapshot) {
  const CliResult table = run_cli({"stats"});
  EXPECT_EQ(table.code, 0) << table.err;
  EXPECT_NE(table.out.find("engine.requests"), std::string::npos);

  const CliResult json = run_cli({"stats", "--format=json"});
  EXPECT_EQ(json.code, 0) << json.err;
  const JsonValue doc = JsonValue::parse(json.out);
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("counters"), nullptr);

  const CliResult csv = run_cli({"stats", "--csv"});
  EXPECT_EQ(csv.code, 2);  // csv is not offered for the snapshot
}

TEST(ObsCli, BatchMetricsFlagGoesToStderrOnly) {
  const std::string request_path = "test_obs_batch_req.jsonl";
  {
    std::ofstream req(request_path);
    req << R"({"op": "analyze", "app": {"name": "lulesh", "ranks": 8}})"
        << '\n';
  }
  const CliResult plain =
      run_cli({"batch", "--file", request_path.c_str()});
  const CliResult with_metrics =
      run_cli({"batch", "--file", request_path.c_str(), "--metrics"});
  std::remove(request_path.c_str());
  ASSERT_EQ(plain.code, 0) << plain.err;
  ASSERT_EQ(with_metrics.code, 0) << with_metrics.err;
  EXPECT_EQ(plain.out, with_metrics.out);  // responses are byte-identical
  EXPECT_NE(with_metrics.err.find("engine.requests"), std::string::npos);
  EXPECT_NE(with_metrics.err.find("batch.requests"), std::string::npos);
}

}  // namespace
}  // namespace llamp
