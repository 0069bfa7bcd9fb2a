#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "schedgen/schedgen.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace llamp::core {
namespace {

graph::Graph app_graph(const std::string& name, int ranks, double scale) {
  return schedgen::build_graph(apps::make_app_trace(name, ranks, scale));
}

loggops::Params testbed() {
  return loggops::NetworkConfig::cscs_testbed(5'000.0);
}

TEST(RunningExample, AnalyzerWrapsSolver) {
  const auto g = testing::running_example_graph();
  auto p = testing::running_example_params();
  p.L = 0.0;
  LatencyAnalyzer an(g, p);
  EXPECT_DOUBLE_EQ(an.base_runtime(), 1'500.0);
  EXPECT_DOUBLE_EQ(an.predict_runtime(500.0), 1'615.0);
  EXPECT_DOUBLE_EQ(an.lambda_L(500.0), 1.0);
  EXPECT_DOUBLE_EQ(an.lambda_L(100.0), 0.0);
  // 2 us budget is +33.33% over the 1.5 us base.
  EXPECT_NEAR(an.tolerance(100.0 / 3.0), 885.0, 0.5);
  const auto crit = an.critical_latencies(0.0, 1'000.0);
  ASSERT_EQ(crit.size(), 1u);
  EXPECT_NEAR(crit[0], 385.0, 1e-3);
}

TEST(RunningExample, RhoIsLatencyShareOfCriticalPath) {
  const auto g = testing::running_example_graph();
  auto p = testing::running_example_params();
  p.L = 0.0;
  LatencyAnalyzer an(g, p);
  // At ΔL = 500 ns: T = 1615, λ = 1 -> ρ = 500/1615.
  EXPECT_NEAR(an.rho_L(500.0), 500.0 / 1'615.0, 1e-12);
  EXPECT_DOUBLE_EQ(an.rho_L(100.0), 0.0);
}

TEST(Forecast, MonotoneInInjectedLatency) {
  const auto g = app_graph("milc", 8, 0.1);
  LatencyAnalyzer an(g, testbed());
  double prev = 0.0;
  for (double d = 0.0; d <= us(100.0); d += us(10.0)) {
    const double t = an.predict_runtime(d);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Tolerance, OrderedByPercentage) {
  const auto g = app_graph("lulesh", 8, 0.3);
  LatencyAnalyzer an(g, testbed());
  const double t1 = an.tolerance(1.0);
  const double t2 = an.tolerance(2.0);
  const double t5 = an.tolerance(5.0);
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t5);
  EXPECT_GT(t1, testbed().L);  // tolerance is an absolute latency > base
  EXPECT_DOUBLE_EQ(an.tolerance_delta(1.0), t1 - testbed().L);
  EXPECT_THROW((void)an.tolerance(-1.0), Error);
}

TEST(Tolerance, RejectsNonFinitePercentagesBeforeTheMemo) {
  // NaN slips past a plain `< 0` check; it must be rejected up front like
  // infinities and negatives, never reach the solver, never be memoized.
  const auto g = app_graph("lulesh", 8, 0.05);
  SolverCache cache;
  const LatencyAnalyzer an(g, testbed(), cache, GraphKey{"lulesh", 8, 0.05, 0});
  const auto before = cache.stats();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0,
                           -1e-300}) {
    EXPECT_THROW((void)an.tolerance(bad), Error) << bad;
    EXPECT_THROW((void)an.tolerance_delta(bad), Error) << bad;
  }
  try {
    (void)an.tolerance(std::numeric_limits<double>::quiet_NaN());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
  }
  const auto after = cache.stats();
  EXPECT_EQ(after.memo_hits, before.memo_hits);
  EXPECT_EQ(after.memo_misses, before.memo_misses);
  EXPECT_EQ(after.memo_bytes, before.memo_bytes);
  // Zero is a valid percentage (the base runtime itself is the budget).
  EXPECT_GE(an.tolerance(0.0), testbed().L);
}

TEST(Tolerance, StandaloneAndWarmAnalyzersAgreeBitwise) {
  // The standalone constructor is the warm path over a private cache; a
  // session cache warmed by another analyzer must serve the same bits.
  const auto g = app_graph("milc", 8, 0.05);
  const GraphKey key{"milc", 8, 0.05, 0};
  SolverCache cache;
  const LatencyAnalyzer first(g, testbed(), cache, key);
  for (const double pct : {1.0, 2.0, 5.0}) (void)first.tolerance(pct);
  const LatencyAnalyzer warm(g, testbed(), cache, key);
  const LatencyAnalyzer alone(g, testbed());
  EXPECT_EQ(warm.base_runtime(), alone.base_runtime());
  EXPECT_EQ(warm.lambda_G(), alone.lambda_G());
  for (const double pct : {1.0, 2.0, 5.0}) {
    EXPECT_EQ(warm.tolerance_delta(pct), alone.tolerance_delta(pct)) << pct;
  }
  const double L = testbed().L;
  EXPECT_EQ(warm.critical_latencies_algorithm2(L, L + us(20.0), 100.0),
            alone.solver().critical_values_algorithm2(0, L, L + us(20.0),
                                                      100.0));
  EXPECT_GT(cache.stats().memo_hits, 0u);
}

TEST(Tolerance, MilcLessTolerantThanIcon) {
  // The headline qualitative result of Fig. 1.
  const auto g_milc = app_graph("milc", 16, 0.15);
  const auto g_icon = app_graph("icon", 16, 0.3);
  LatencyAnalyzer milc(g_milc, testbed());
  LatencyAnalyzer icon(g_icon, testbed());
  EXPECT_LT(milc.tolerance_delta(1.0), icon.tolerance_delta(1.0));
  EXPECT_LT(milc.tolerance_delta(5.0), icon.tolerance_delta(5.0));
}

TEST(RuntimeCurve, SegmentsTileTheInterval) {
  const auto g = app_graph("cloverleaf", 8, 0.2);
  LatencyAnalyzer an(g, testbed());
  const auto segs = an.runtime_curve(testbed().L, testbed().L + us(50.0));
  ASSERT_FALSE(segs.empty());
  for (std::size_t i = 1; i < segs.size(); ++i) {
    EXPECT_LE(segs[i - 1].hi, segs[i].lo + 1.0);
    EXPECT_LT(segs[i - 1].slope, segs[i].slope);  // merged => strictly rising
  }
}

TEST(BandwidthSensitivity, PositiveForMessageHeavyApp) {
  const auto g = app_graph("npb-ft", 8, 0.2);
  LatencyAnalyzer an(g, testbed());
  EXPECT_GT(an.lambda_G(), 0.0);
}

TEST(PairwiseSensitivity, SymmetricAndConsistentWithLambda) {
  const auto g = app_graph("milc", 8, 0.05);
  LatencyAnalyzer an(g, testbed());
  const auto m = an.pairwise_lambda_L();
  const int n = g.nranks();
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(m[static_cast<std::size_t>(i) * n + i], 0.0);
    for (int j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(m[static_cast<std::size_t>(i) * n + j],
                       m[static_cast<std::size_t>(j) * n + i]);
      if (i < j) total += m[static_cast<std::size_t>(i) * n + j];
    }
  }
  // The pairwise λ decompose the scalar λ_L (identical uniform base point).
  EXPECT_NEAR(total, an.lambda_L(), 1e-6);
}

TEST(Sweep, ParallelMatchesSerial) {
  const auto g = app_graph("hpcg", 8, 0.15);
  LatencyAnalyzer an(g, testbed());
  std::vector<TimeNs> deltas;
  for (int i = 0; i < 24; ++i) deltas.push_back(us(5.0 * i));
  const auto serial = an.sweep(deltas, 1);
  const auto parallel = an.sweep(deltas, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].runtime, parallel[i].runtime);
    EXPECT_DOUBLE_EQ(serial[i].lambda_L, parallel[i].lambda_L);
    EXPECT_DOUBLE_EQ(serial[i].rho_L, parallel[i].rho_L);
    EXPECT_DOUBLE_EQ(serial[i].runtime, an.predict_runtime(deltas[i]));
  }
}

TEST(Report, ConsolidatesAnalyzerOutputs) {
  const auto g = app_graph("milc", 8, 0.1);
  ReportOptions opts;
  opts.sweep_max = us(50.0);
  opts.sweep_points = 6;
  const ToleranceReport rep = make_report(g, testbed(), opts);
  EXPECT_GT(rep.base_runtime, 0.0);
  ASSERT_EQ(rep.curve.size(), 6u);
  EXPECT_DOUBLE_EQ(rep.curve.front().delta_L, 0.0);
  EXPECT_DOUBLE_EQ(rep.curve.back().delta_L, us(50.0));
  EXPECT_DOUBLE_EQ(rep.curve.front().runtime, rep.base_runtime);
  ASSERT_EQ(rep.bands.size(), 3u);
  EXPECT_LT(rep.bands[0].tolerance_delta, rep.bands[2].tolerance_delta);
  const auto text = rep.to_string();
  EXPECT_NE(text.find("base runtime"), std::string::npos);
  EXPECT_NE(text.find("latency tolerance"), std::string::npos);
}

TEST(Report, ValidatesOptions) {
  const auto g = app_graph("cloverleaf", 8, 0.05);
  ReportOptions opts;
  opts.sweep_points = 1;
  EXPECT_THROW((void)make_report(g, testbed(), opts), Error);
}

TEST(Sweep, RejectsNegativeInjection) {
  const auto g = app_graph("cloverleaf", 8, 0.1);
  LatencyAnalyzer an(g, testbed());
  EXPECT_THROW((void)an.sweep({us(1.0), -us(1.0)}, 2), Error);
  EXPECT_TRUE(an.sweep({}).empty());
}

TEST(Sweep, ValidatesGridBeforeWorkerThreadsStart) {
  // Bad injections must raise a clean Error on the calling thread — even
  // with a multi-threaded sweep — rather than relying on exception
  // propagation out of the worker pool.  NaN and infinity are rejected,
  // not just negatives.
  const auto g = app_graph("cloverleaf", 8, 0.1);
  LatencyAnalyzer an(g, testbed());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const int threads : {1, 4}) {
    EXPECT_THROW((void)an.sweep({0.0, nan}, threads), Error);
    EXPECT_THROW((void)an.sweep({inf}, threads), Error);
    EXPECT_THROW((void)an.sweep({-0.5}, threads), Error);
  }
  try {
    (void)an.sweep({us(1.0), nan}, 4);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
  }
}

TEST(Sweep, UnsortedGridMatchesSortedPointwise) {
  // Grid order decides which points solve densely and which replay an
  // anchor; every point must still be bitwise identical to a lone query
  // and to a dense solve.
  const auto g = app_graph("hpcg", 8, 0.1);
  LatencyAnalyzer an(g, testbed());
  const std::vector<TimeNs> unsorted = {us(40.0), us(5.0), us(20.0), 0.0,
                                        us(10.0)};
  const auto shuffled = an.sweep(unsorted, 2);
  for (std::size_t i = 0; i < unsorted.size(); ++i) {
    const auto one = an.sweep({unsorted[i]}, 1);
    EXPECT_EQ(shuffled[i].runtime, one[0].runtime);
    EXPECT_EQ(shuffled[i].lambda_L, one[0].lambda_L);
    EXPECT_EQ(shuffled[i].rho_L, one[0].rho_L);
    const auto dense = an.solver().solve(0, testbed().L + unsorted[i]);
    EXPECT_EQ(shuffled[i].runtime, dense.value);
    EXPECT_EQ(shuffled[i].lambda_L, dense.gradient[0]);
  }
}

}  // namespace
}  // namespace llamp::core
