#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "apps/registry.hpp"
#include "core/solver_cache.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace llamp::lp {
namespace {

std::shared_ptr<LatencyParamSpace> running_space() {
  return std::make_shared<LatencyParamSpace>(
      llamp::testing::running_example_params());
}

TEST(RunningExample, ExactPaperNumbers) {
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());

  // T(0.5 us) = 1.615 us with λ_L = 1 and feasibility lower bound 0.385 us
  // (Fig. 5 and Fig. 16 of the paper).
  const auto at500 = solver.solve(0, 500.0);
  EXPECT_DOUBLE_EQ(at500.value, 1'615.0);
  EXPECT_DOUBLE_EQ(at500.gradient[0], 1.0);
  EXPECT_NEAR(at500.lo, 385.0, 1e-6);
  EXPECT_EQ(at500.messages, 1u);

  // Below the critical latency the receiver chain dominates: λ_L = 0.
  const auto at100 = solver.solve(0, 100.0);
  EXPECT_DOUBLE_EQ(at100.value, 1'500.0);
  EXPECT_DOUBLE_EQ(at100.gradient[0], 0.0);
  EXPECT_NEAR(at100.hi, 385.0, 1e-6);

  // The single critical latency L_c = 0.385 us.
  const auto crit = solver.critical_values(0, 0.0, 1'000.0);
  ASSERT_EQ(crit.size(), 1u);
  EXPECT_NEAR(crit[0], 385.0, 1e-3);

  // Tolerance for a 2 us budget = 0.885 us (Fig. 6).
  EXPECT_NEAR(solver.max_param_for_budget(0, 2'000.0), 885.0, 1e-6);
}

TEST(RunningExample, PiecewiseSegments) {
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  const auto segs = solver.piecewise(0, 0.0, 1'000.0);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_DOUBLE_EQ(segs[0].slope, 0.0);
  EXPECT_DOUBLE_EQ(segs[0].value_at_lo, 1'500.0);
  EXPECT_NEAR(segs[0].hi, 385.0, 1e-3);
  EXPECT_DOUBLE_EQ(segs[1].slope, 1.0);
}

TEST(Algorithm2, MatchesExactCriticalValuesOnRunningExample) {
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  const auto exact = solver.critical_values(0, 0.0, 1'000.0);
  const auto alg2 = solver.critical_values_algorithm2(0, 0.0, 1'000.0);
  ASSERT_EQ(alg2.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(alg2[i], exact[i], 1e-3);
  }
}

TEST(Algorithm2, PaperAppendixDExample) {
  // Appendix D runs Algorithm 2 on the running example over [0.2, 0.5] us
  // with the initial bound at 0.5: two iterations find L_c = 0.385 us.
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  const auto lc = solver.critical_values_algorithm2(0, 200.0, 500.0);
  ASSERT_EQ(lc.size(), 1u);
  EXPECT_NEAR(lc[0], 385.0, 1e-3);
}

TEST(Algorithm2, StepKnobSkipsFineStructure) {
  // With a step larger than the interval, at most the first basis is seen.
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  const auto coarse =
      solver.critical_values_algorithm2(0, 0.0, 1'000.0, /*step=*/2'000.0);
  EXPECT_LE(coarse.size(), 1u);
  EXPECT_THROW(
      (void)solver.critical_values_algorithm2(0, 0.0, 1.0, 0.0, /*eps=*/0.0),
      LpError);
  EXPECT_THROW((void)solver.critical_values_algorithm2(0, 5.0, 1.0), LpError);
}

TEST(Algorithm2, RejectsNonFiniteBoundsAndStepBeforeSolving) {
  // Without the input checks these returned one bogus critical latency
  // (step NaN / +inf), an empty list (hi = +inf), or scanned for seconds
  // (lo = -inf) on lulesh-8.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double lo = p.L;
  const double hi = p.L + 20'000.0;
  struct Case {
    double lo, hi, step;
  };
  for (const Case c : {Case{lo, hi, kNaN}, Case{lo, hi, kInf},
                       Case{lo, hi, -kInf}, Case{lo, hi, -1.0},
                       Case{lo, kInf, 0.0}, Case{lo, kNaN, 0.0},
                       Case{-kInf, hi, 0.0}, Case{kNaN, hi, 0.0},
                       Case{-kInf, kInf, 100.0}}) {
    SCOPED_TRACE(::testing::Message()
                 << "lo=" << c.lo << " hi=" << c.hi << " step=" << c.step);
    try {
      (void)solver.critical_values_algorithm2(0, c.lo, c.hi, c.step);
      ADD_FAILURE() << "expected LpError";
    } catch (const LpError& e) {
      EXPECT_STREQ(e.what(),
                   "lp: algorithm2: lo, hi and step must be finite, step >= 0");
    }
  }
  // A NaN eps is not positive.
  EXPECT_THROW((void)solver.critical_values_algorithm2(0, lo, hi, 0.0, kNaN),
               LpError);
  // Both signed zeros stay valid steps, and scan the same way.
  EXPECT_EQ(solver.critical_values_algorithm2(0, lo, hi, 0.0),
            solver.critical_values_algorithm2(0, lo, hi, -0.0));
}

TEST(Algorithm2, RejectedInputsAreNeverMemoized) {
  const auto g = llamp::testing::running_example_graph();
  const auto p = llamp::testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, p.S}, g, p);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW((void)entry->critical_values_algorithm2(0, 0.0, 1'000.0, nan),
                 LpError);
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.memo_misses, 3u) << "each rejected call recomputes";
  EXPECT_EQ(s.memo_hits, 0u);
  EXPECT_EQ(s.memo_bytes, 0u);
  // A valid key on the same entry is computed and stored as usual.
  const auto lc = entry->critical_values_algorithm2(0, 0.0, 1'000.0, 0.0);
  ASSERT_EQ(lc.size(), 1u);
  EXPECT_NEAR(lc[0], 385.0, 1e-3);
  EXPECT_GT(cache.stats().memo_bytes, 0u);
}

TEST(Tolerance, ThrowsWhenBudgetBelowBase) {
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  EXPECT_THROW((void)solver.max_param_for_budget(0, 1'000.0), LpError);
}

TEST(Tolerance, InfiniteWhenLatencyNeverCritical) {
  // Single-rank graph: no communication at all.
  graph::Graph g(1);
  const auto a = g.add_calc(0, 100.0);
  const auto b = g.add_calc(0, 50.0);
  g.add_local_edge(a, b);
  g.finalize();
  LoweredProblem solver(g, running_space());
  EXPECT_TRUE(std::isinf(solver.max_param_for_budget(0, 1'000.0)));
}

TEST(Tolerance, ExactAtZeroPercentBudget) {
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  const double T0 = solver.solve(0, 0.0).value;
  // Budget exactly the base runtime: tolerance is the critical latency.
  EXPECT_NEAR(solver.max_param_for_budget(0, T0), 385.0, 1e-3);
}

TEST(Convexity, SlopeMonotoneInParameter) {
  const auto trace = llamp::testing::random_trace({});
  // (validated in depth by test_equivalence; a light check here)
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  double prev_slope = -1.0;
  for (double L = 0; L <= 2'000.0; L += 100.0) {
    const double s = solver.solve(0, L).gradient[0];
    EXPECT_GE(s, prev_slope - 1e-12);
    prev_slope = s;
  }
  (void)trace;
}

TEST(FeasibilityRange, SolutionStableInsideRange) {
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  const auto sol = solver.solve(0, 500.0);
  // Anywhere inside [lo, hi], slope and the linear value formula hold.
  const double mid = 0.5 * (sol.lo + std::min(sol.hi, 1'000.0));
  const auto sol2 = solver.solve(0, mid);
  EXPECT_DOUBLE_EQ(sol2.gradient[0], sol.gradient[0]);
  EXPECT_NEAR(sol2.value, sol.value + sol.gradient[0] * (mid - sol.at), 1e-9);
}

TEST(BandwidthSpace, GradientCountsBytes) {
  const auto g = llamp::testing::running_example_graph();
  const auto space = std::make_shared<LatencyBandwidthParamSpace>(
      llamp::testing::running_example_params());
  LoweredProblem solver(g, space);
  // At L = 1 us the comm path dominates; λ_G = s - 1 = 3.
  auto p = llamp::testing::running_example_params();
  (void)p;
  const auto sol = solver.solve(0, 1'000.0);
  EXPECT_DOUBLE_EQ(sol.gradient[0], 1.0);  // λ_L
  EXPECT_DOUBLE_EQ(sol.gradient[1], 3.0);  // λ_G
}

TEST(PairwiseSpace, IndexingBijective) {
  loggops::Params p;
  PairwiseLatencyParamSpace space(p, 5);
  std::vector<bool> seen(static_cast<std::size_t>(space.num_params()), false);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      const int k = space.pair_index(i, j);
      EXPECT_EQ(k, space.pair_index(j, i));
      ASSERT_GE(k, 0);
      ASSERT_LT(k, space.num_params());
      EXPECT_FALSE(seen[static_cast<std::size_t>(k)]);
      seen[static_cast<std::size_t>(k)] = true;
    }
  }
  EXPECT_THROW((void)space.pair_index(2, 2), LpError);
  EXPECT_EQ(space.param_name(space.pair_index(3, 1)), "l_1_3");
}

TEST(PairwiseSpace, MatrixValidation) {
  loggops::Params p;
  std::vector<double> asym(16, 1.0);
  asym[1] = 2.0;  // (0,1) != (1,0)
  EXPECT_THROW(PairwiseLatencyParamSpace(p, 4, asym), LpError);
  EXPECT_THROW(PairwiseLatencyParamSpace(p, 4, std::vector<double>(9, 1.0)),
               LpError);
}

TEST(PairwiseSpace, GradientIdentifiesTheCriticalPair) {
  const auto g = llamp::testing::running_example_graph();
  auto p = llamp::testing::running_example_params();
  const auto space = std::make_shared<PairwiseLatencyParamSpace>(p, 2);
  LoweredProblem solver(g, space);
  const auto sol = solver.solve(space->pair_index(0, 1), 1'000.0);
  EXPECT_DOUBLE_EQ(sol.gradient[static_cast<std::size_t>(space->pair_index(0, 1))], 1.0);
}

TEST(LinkClassSpace, RouteDecomposition) {
  loggops::Params p;
  p.o = 0.0;
  // Two ranks, one class, route: 4 wires + constant 100.
  std::vector<LinkClassParamSpace::Route> routes(4);
  for (auto& r : routes) r.counts.assign(1, 0.0);
  routes[1].counts[0] = 4.0;
  routes[1].constant = 100.0;
  routes[2] = routes[1];
  LinkClassParamSpace space(p, {"l_wire"}, {250.0}, routes, 2);

  graph::Graph g(2);
  const auto s = g.add_send(0, 1, 1);
  const auto r = g.add_recv(1, 0, 1);
  g.add_comm_edge(s, r, false);
  g.finalize();
  const Affine a = space.edge_cost(g, g.edges()[0]);
  EXPECT_DOUBLE_EQ(a.constant, 100.0);
  ASSERT_EQ(a.terms.size(), 1u);
  EXPECT_DOUBLE_EQ(a.terms[0].coeff, 4.0);
}

TEST(LinkClassSpace, Validation) {
  loggops::Params p;
  EXPECT_THROW(LinkClassParamSpace(p, {"a"}, {1.0, 2.0}, {}, 0), LpError);
  std::vector<LinkClassParamSpace::Route> routes(4);
  EXPECT_THROW(LinkClassParamSpace(p, {"a"}, {1.0}, routes, 2), LpError);
}

TEST(Errors, InvalidArguments) {
  const auto g = llamp::testing::running_example_graph();
  LoweredProblem solver(g, running_space());
  EXPECT_THROW((void)solver.solve(5, 0.0), LpError);
  EXPECT_THROW((void)solver.piecewise(0, 10.0, 0.0), LpError);
  EXPECT_THROW((void)solver.max_param_for_budget(9, 1.0), LpError);
  EXPECT_THROW(LoweredProblem(g, nullptr), LpError);
  graph::Graph unfinalized(1);
  (void)unfinalized.add_calc(0, 1.0);
  EXPECT_THROW(LoweredProblem(unfinalized, running_space()), LpError);
}

}  // namespace
}  // namespace llamp::lp
