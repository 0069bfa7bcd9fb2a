#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "lp/graph_lp.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "lp/simplex.hpp"
#include "schedgen/schedgen.hpp"
#include "stoch/distribution.hpp"
#include "stoch/mc.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace llamp {
namespace {

loggops::Params test_params() {
  loggops::Params p;
  p.L = 3'000.0;
  p.o = 1'200.0;
  p.G = 0.05;
  p.S = 256 * 1024;
  return p;
}

graph::Graph small_app_graph() {
  return schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.05));
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

TEST(StochDistribution, ParseRoundTrips) {
  for (const char* spec :
       {"base", "const:5", "normal:3000,150", "relnormal:0.05",
        "uniform:100,200"}) {
    const auto d = stoch::parse_distribution(spec);
    EXPECT_EQ(stoch::parse_distribution(d.to_string()).kind, d.kind) << spec;
  }
}

// The spec string is echoed into JSONL results and re-parseable as a
// request field, so to_string must reproduce the parameters *bitwise*
// however many digits they carry (%g-style truncation would silently
// change the distribution on the round trip).
TEST(StochDistribution, ToStringIsExactForAwkwardParameters) {
  const auto d = stoch::Distribution::normal(3000.123456789012, 0.1);
  const auto back = stoch::parse_distribution(d.to_string());
  EXPECT_EQ(back.a, d.a);
  EXPECT_EQ(back.b, d.b);

  const auto rel = stoch::Distribution::rel_normal(1.0 / 3.0);
  EXPECT_EQ(stoch::parse_distribution(rel.to_string()).a, rel.a);
  // Short spellings stay short.
  EXPECT_EQ(stoch::Distribution::rel_normal(0.05).to_string(),
            "relnormal:0.05");
}

TEST(StochDistribution, ParseRejectsGarbage) {
  for (const char* spec :
       {"", "gaussian:1,2", "normal:1", "normal:1,2,3", "const:",
        "const:abc", "uniform:5,1", "uniform:-1,2", "normal:5,-1",
        "relnormal:-0.1", "base:1"}) {
    EXPECT_THROW(stoch::parse_distribution(spec), UsageError) << spec;
  }
}

TEST(StochDistribution, DegenerateKindsReturnExactValues) {
  Rng rng(1);
  const auto base = stoch::Distribution::base();
  EXPECT_TRUE(base.degenerate());
  EXPECT_EQ(base.sample(rng, 3'000.0), 3'000.0);

  const auto cst = stoch::Distribution::constant(123.25);
  EXPECT_TRUE(cst.degenerate());
  EXPECT_EQ(cst.sample(rng, 99.0), 123.25);

  // Zero-variance normals must hand back the mean bitwise, not merely
  // approximately: the degenerate-MC reproduction contract depends on it.
  const auto n0 = stoch::Distribution::normal(3'000.0, 0.0);
  EXPECT_TRUE(n0.degenerate());
  EXPECT_EQ(n0.sample(rng, 99.0), 3'000.0);

  const auto r0 = stoch::Distribution::rel_normal(0.0);
  EXPECT_TRUE(r0.degenerate());
  EXPECT_EQ(r0.sample(rng, 3'000.0), 3'000.0);
}

TEST(StochDistribution, SamplingMomentsAndTruncation) {
  Rng rng(7);
  const auto d = stoch::Distribution::rel_normal(0.1);
  EXPECT_FALSE(d.degenerate());
  double sum = 0.0;
  int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng, 1'000.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1'000.0, 5.0);

  // A distribution hugging zero gets visibly truncated: no negative draws.
  const auto tight = stoch::Distribution::normal(1.0, 10.0);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_GE(tight.sample(rng, 0.0), 0.0);
  }
}

TEST(StochDistribution, EdgeNoiseFollowsInjectorConvention) {
  stoch::EdgeNoise none;
  Rng rng(3);
  EXPECT_TRUE(none.degenerate());
  EXPECT_EQ(none.factor(rng), 1.0);

  stoch::EdgeNoise noisy{0.01, 0.002};
  noisy.validate();
  for (int i = 0; i < 1'000; ++i) {
    // Folded normal on top of the bias: slowdown-only, like the emulator.
    EXPECT_GE(noisy.factor(rng), 1.002);
  }

  EXPECT_THROW((stoch::EdgeNoise{-0.1, 0.0}).validate(), UsageError);
  EXPECT_THROW((stoch::EdgeNoise{0.0, -1.0}).validate(), UsageError);
}

TEST(StochDistribution, EdgeNoiseSkipAdvancesExactlyAsFactor) {
  // The general mc path skips the factor of an edge that carries no cost:
  // the stream must then sit where factor() leaves it, and a degenerate
  // noise draws nothing either way.
  for (const stoch::EdgeNoise noise :
       {stoch::EdgeNoise{0.02, 0.0}, stoch::EdgeNoise{0.0, 0.01},
        stoch::EdgeNoise{0.5, 0.2}}) {
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
      Rng drawn(seed);
      Rng skipped(seed);
      (void)noise.factor(drawn);
      noise.skip(skipped);
      ASSERT_EQ(drawn.next_u64(), skipped.next_u64()) << "seed " << seed;
    }
  }
  const stoch::EdgeNoise none;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng untouched(seed);
    Rng drawn(seed);
    Rng skipped(seed);
    EXPECT_EQ(none.factor(drawn), 1.0);
    none.skip(skipped);
    const std::uint64_t next = untouched.next_u64();
    EXPECT_EQ(drawn.next_u64(), next);
    EXPECT_EQ(skipped.next_u64(), next);
  }
  // Skips are only taken when every factor is finite.
  EXPECT_TRUE((stoch::EdgeNoise{0.02, 0.0}).factors_finite());
  EXPECT_FALSE((stoch::EdgeNoise{1e308, 0.0}).factors_finite());
}

TEST(StochDistribution, SampleSeedsDecorrelated) {
  // Consecutive indices (and consecutive seeds) must land in unrelated
  // generator states: first draws all distinct.
  std::vector<double> draws;
  for (std::uint64_t i = 0; i < 64; ++i) {
    Rng rng(stoch::sample_seed(42, i));
    draws.push_back(rng.uniform());
  }
  for (std::size_t a = 0; a < draws.size(); ++a) {
    for (std::size_t b = a + 1; b < draws.size(); ++b) {
      EXPECT_NE(draws[a], draws[b]);
    }
  }
  EXPECT_NE(stoch::sample_seed(42, 0), stoch::sample_seed(43, 0));
}

// ---------------------------------------------------------------------------
// The lp perturbation hook
// ---------------------------------------------------------------------------

TEST(PerturbedSpace, AllOnesFactorsAreBitwiseTransparent) {
  const auto g = small_app_graph();
  const auto p = test_params();
  const auto base = std::make_shared<lp::LatencyParamSpace>(p);
  const auto perturbed = std::make_shared<lp::PerturbedParamSpace>(
      base, std::vector<double>(g.num_edges(), 1.0));

  lp::LoweredProblem plain(g, base);
  lp::LoweredProblem hooked(g, perturbed);
  for (const double L : {0.0, 1'500.0, 3'000.0, 50'000.0}) {
    const auto a = plain.solve(0, L);
    const auto b = hooked.solve(0, L);
    EXPECT_EQ(a.value, b.value) << "L=" << L;
    EXPECT_EQ(a.gradient[0], b.gradient[0]) << "L=" << L;
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
  }
}

TEST(PerturbedSpace, UniformSlowdownRaisesRuntime) {
  const auto g = small_app_graph();
  const auto p = test_params();
  const auto base = std::make_shared<lp::LatencyParamSpace>(p);
  const auto slow = std::make_shared<lp::PerturbedParamSpace>(
      base, std::vector<double>(g.num_edges(), 1.25));
  lp::LoweredProblem plain(g, base);
  lp::LoweredProblem hooked(g, slow);
  EXPECT_GT(hooked.solve(0, p.L).value, plain.solve(0, p.L).value);
}

TEST(PerturbedSpace, AgreesWithSimplexUnderRandomFactors) {
  // The perturbed space is still an Algorithm-1 LP; the explicit simplex
  // path must agree with the parametric solver on it.
  testing::RandomProgramConfig cfg;
  cfg.seed = 77;
  cfg.nranks = 4;
  cfg.steps = 30;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const auto p = test_params();

  Rng rng(5);
  std::vector<double> factors(g.num_edges());
  for (double& f : factors) f = rng.uniform(0.8, 1.3);

  const auto space = std::make_shared<lp::PerturbedParamSpace>(
      std::make_shared<lp::LatencyParamSpace>(p), factors);
  auto glp = lp::build_graph_lp(g, *space);
  const auto s = lp::SimplexSolver{}.solve(glp.model);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);

  lp::LoweredProblem solver(g, space);
  const auto sol = solver.solve(0, p.L);
  EXPECT_NEAR(s.objective, sol.value, 1e-6 * (1.0 + sol.value));
  EXPECT_NEAR(s.reduced_cost[static_cast<std::size_t>(glp.param_vars[0])],
              sol.gradient[0], 1e-6);
}

TEST(PerturbedSpace, RejectsBadFactors) {
  const auto base = std::make_shared<lp::LatencyParamSpace>(test_params());
  EXPECT_THROW(lp::PerturbedParamSpace(base, {1.0, -0.5}), LpError);
  EXPECT_THROW(
      lp::PerturbedParamSpace(
          base, {1.0, std::numeric_limits<double>::infinity()}),
      LpError);
  EXPECT_THROW(lp::PerturbedParamSpace(nullptr, {}), LpError);

  // Factor-count mismatch surfaces at lowering time.
  const auto g = small_app_graph();
  const auto wrong = std::make_shared<lp::PerturbedParamSpace>(
      base, std::vector<double>(3, 1.0));
  EXPECT_THROW(lp::LoweredProblem(g, wrong), LpError);
}

// ---------------------------------------------------------------------------
// The Monte Carlo engine
// ---------------------------------------------------------------------------

stoch::McSpec degenerate_spec() {
  stoch::McSpec spec;
  spec.samples = 1;
  spec.delta_Ls = {0.0, 25'000.0, 50'000.0};
  spec.band_percents = {1.0, 2.0, 5.0};
  return spec;
}

TEST(StochMc, DegenerateRunReproducesAnalyzerBitwise) {
  // The acceptance criterion of the subsystem: N = 1 with zero-variance
  // distributions is the deterministic analysis, bit for bit.
  const auto g = small_app_graph();
  const auto p = test_params();
  const auto spec = degenerate_spec();
  const auto res = stoch::run_mc(g, p, spec);

  core::LatencyAnalyzer an(g, p);
  const auto sweep = an.sweep(spec.delta_Ls);
  ASSERT_EQ(res.runtime.size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(res.runtime[i].count(), 1u);
    EXPECT_EQ(res.runtime[i].mean(), sweep[i].runtime);
    EXPECT_EQ(res.runtime[i].min(), sweep[i].runtime);
    EXPECT_EQ(res.runtime[i].max(), sweep[i].runtime);
    EXPECT_EQ(res.runtime[i].q05(), sweep[i].runtime);
    EXPECT_EQ(res.runtime[i].median(), sweep[i].runtime);
    EXPECT_EQ(res.runtime[i].q95(), sweep[i].runtime);
    EXPECT_EQ(res.runtime[i].stddev(), 0.0);
  }
  EXPECT_EQ(res.lambda_L.mean(), an.lambda_L());
  EXPECT_EQ(res.rho_L.mean(), an.rho_L());
  ASSERT_EQ(res.bands.size(), spec.band_percents.size());
  for (std::size_t b = 0; b < res.bands.size(); ++b) {
    const double det = an.tolerance_delta(spec.band_percents[b]);
    if (std::isfinite(det)) {
      EXPECT_EQ(res.bands[b].tolerance_delta.mean(), det);
    } else {
      EXPECT_EQ(res.bands[b].tolerance_delta.unbounded(), 1u);
      EXPECT_EQ(res.bands[b].tolerance_delta.count(), 0u);
    }
  }
}

stoch::McSpec noisy_spec() {
  stoch::McSpec spec;
  spec.samples = 96;
  spec.seed = 11;
  spec.L = stoch::Distribution::rel_normal(0.05);
  spec.o = stoch::Distribution::rel_normal(0.02);
  spec.noise = {0.003, 0.0};
  spec.delta_Ls = {0.0, 20'000.0};
  spec.band_percents = {1.0, 5.0};
  return spec;
}

void expect_summaries_equal(const stoch::Summary& a, const stoch::Summary& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.unbounded(), b.unbounded());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.q05(), b.q05());
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.q95(), b.q95());
}

TEST(StochMc, ThreadCountNeverChangesTheResult) {
  const auto g = small_app_graph();
  const auto p = test_params();
  auto spec = noisy_spec();
  spec.threads = 1;
  const auto serial = stoch::run_mc(g, p, spec);
  spec.threads = 8;
  const auto parallel = stoch::run_mc(g, p, spec);

  ASSERT_EQ(serial.runtime.size(), parallel.runtime.size());
  for (std::size_t i = 0; i < serial.runtime.size(); ++i) {
    expect_summaries_equal(serial.runtime[i], parallel.runtime[i]);
  }
  expect_summaries_equal(serial.lambda_L, parallel.lambda_L);
  expect_summaries_equal(serial.rho_L, parallel.rho_L);
  for (std::size_t b = 0; b < serial.bands.size(); ++b) {
    expect_summaries_equal(serial.bands[b].tolerance_delta,
                           parallel.bands[b].tolerance_delta);
  }
}

TEST(StochMc, FastPathMatchesScalarReferenceBitwise) {
  // An L-only run always takes the lane-batched fast path.  A scalar
  // reference built here on the public LoweredProblem — per-sample
  // Rng(sample_seed) draws, one sweep over the ΔL grid, one
  // max_param_for_budget_from per band, folded in ascending sample order —
  // must agree bitwise at several thread counts, and at a sample count (43)
  // that exercises full groups of lp::kBatchWidth plus a ragged tail of
  // sub-blocks.
  const auto g = small_app_graph();
  const auto p = test_params();
  stoch::McSpec spec;
  spec.samples = 43;
  spec.seed = 11;
  spec.L = stoch::Distribution::rel_normal(0.05);
  spec.delta_Ls = {0.0, 20'000.0};
  spec.band_percents = {1.0, 5.0};

  const auto shared = stoch::shared_operating_point(spec, p);
  ASSERT_TRUE(shared.has_value());
  const lp::LoweredProblem prob(
      g, std::make_shared<lp::LatencyParamSpace>(*shared));
  lp::LoweredProblem::Cursor cur;
  const std::size_t npts = spec.delta_Ls.size();
  std::vector<stoch::Summary> runtime(npts);
  stoch::Summary lambda_L;
  stoch::Summary rho_L;
  std::vector<stoch::Summary> bands(spec.band_percents.size());
  std::vector<double> xs(npts);
  std::vector<lp::LoweredProblem::SweepEval> evals(npts);
  for (int i = 0; i < spec.samples; ++i) {
    Rng rng(stoch::sample_seed(spec.seed, static_cast<std::uint64_t>(i)));
    const double L = spec.L.sample(rng, p.L);
    for (std::size_t k = 0; k < npts; ++k) xs[k] = L + spec.delta_Ls[k];
    prob.sweep(0, xs, cur, evals.data());
    for (std::size_t k = 0; k < npts; ++k) runtime[k].add(evals[k].value);
    const double v0 = evals[0].value;
    const double lambda0 = evals[0].slope;
    lambda_L.add(lambda0);
    rho_L.add(v0 > 0.0 ? xs[0] * lambda0 / v0 : 0.0);
    for (std::size_t b = 0; b < bands.size(); ++b) {
      const double budget = v0 * (1.0 + spec.band_percents[b] / 100.0);
      const double tol =
          prob.max_param_for_budget_from(0, xs[0], budget, cur);
      bands[b].add(std::isfinite(tol) ? tol - xs[0] : tol);
    }
  }

  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    spec.threads = threads;
    const auto res = stoch::run_mc(g, p, spec);
    EXPECT_TRUE(res.batched);
    EXPECT_EQ(res.batch_width, static_cast<int>(lp::kBatchWidth));
    ASSERT_EQ(res.runtime.size(), npts);
    for (std::size_t k = 0; k < npts; ++k) {
      expect_summaries_equal(res.runtime[k], runtime[k]);
    }
    expect_summaries_equal(res.lambda_L, lambda_L);
    expect_summaries_equal(res.rho_L, rho_L);
    ASSERT_EQ(res.bands.size(), bands.size());
    for (std::size_t b = 0; b < bands.size(); ++b) {
      expect_summaries_equal(res.bands[b].tolerance_delta, bands[b]);
    }
  }
}

TEST(StochMc, GeneralPathIsNeverBatched) {
  // Per-edge noise forces a fresh perturbed lowering per sample — there is
  // no shared operating point to batch over, and the result records that.
  const auto g = small_app_graph();
  const auto p = test_params();
  auto spec = noisy_spec();
  spec.samples = 8;
  const auto res = stoch::run_mc(g, p, spec);
  EXPECT_FALSE(res.batched);
}

TEST(StochMc, SeedSelectsTheNoise) {
  const auto g = small_app_graph();
  const auto p = test_params();
  auto spec = noisy_spec();
  spec.samples = 24;
  const auto a = stoch::run_mc(g, p, spec);
  const auto b = stoch::run_mc(g, p, spec);
  EXPECT_EQ(a.runtime[0].mean(), b.runtime[0].mean());

  spec.seed = 12;
  const auto c = stoch::run_mc(g, p, spec);
  EXPECT_NE(a.runtime[0].mean(), c.runtime[0].mean());
}

TEST(StochMc, NoisySpreadBracketsTheDeterministicValue) {
  const auto g = small_app_graph();
  const auto p = test_params();
  auto spec = noisy_spec();
  spec.samples = 200;
  const auto res = stoch::run_mc(g, p, spec);
  core::LatencyAnalyzer an(g, p);

  const double det = an.base_runtime();
  EXPECT_GT(res.runtime[0].stddev(), 0.0);
  EXPECT_LT(res.runtime[0].q05(), res.runtime[0].median());
  EXPECT_LT(res.runtime[0].median(), res.runtime[0].q95());
  // 5% L jitter and 0.3% edge noise keep the distribution near the
  // deterministic point (edge noise is slowdown-only, so the mean sits a
  // little above it).
  EXPECT_NEAR(res.runtime[0].mean(), det, 0.05 * det);
  EXPECT_GE(res.runtime[0].max(), det * 0.9);
}

TEST(StochMc, FastPathOffBaseMatchesAnalyzerAtThatPoint) {
  // The shared-solver fast path solves at the sampled L through a space
  // built at the *base* L.  A LatencyParamSpace's lowering does not depend
  // on its base L (only o and G shape edge constants), so the result must
  // equal — bitwise — a deterministic analysis whose operating point is
  // the sampled L.
  const auto g = small_app_graph();
  const auto p = test_params();
  stoch::McSpec spec;
  spec.samples = 1;
  spec.L = stoch::Distribution::constant(4'500.0);
  spec.delta_Ls = {0.0, 10'000.0};
  spec.band_percents = {2.0};

  const auto res = stoch::run_mc(g, p, spec);
  loggops::Params moved = p;
  moved.L = 4'500.0;
  core::LatencyAnalyzer an(g, moved);
  const auto sweep = an.sweep(spec.delta_Ls);
  EXPECT_EQ(res.runtime[0].mean(), sweep[0].runtime);
  EXPECT_EQ(res.runtime[1].mean(), sweep[1].runtime);
  EXPECT_EQ(res.lambda_L.mean(), an.lambda_L());
  EXPECT_EQ(res.bands[0].tolerance_delta.mean(), an.tolerance_delta(2.0));
}

TEST(StochMc, GeneralPathMatchesManualPerturbedSolve) {
  // Bias-only edge noise has zero variance but is *not* degenerate, so it
  // drives the per-sample perturbed-space path with every factor exactly
  // 1 + bias — pin it, bitwise, against a hand-built PerturbedParamSpace.
  const auto g = small_app_graph();
  const auto p = test_params();
  stoch::McSpec spec;
  spec.samples = 1;
  spec.noise = {0.0, 0.01};
  spec.delta_Ls = {0.0, 10'000.0};
  spec.band_percents = {};

  const auto res = stoch::run_mc(g, p, spec);
  const auto space = std::make_shared<lp::PerturbedParamSpace>(
      std::make_shared<lp::LatencyParamSpace>(p),
      std::vector<double>(g.num_edges(), 1.0 + 0.01));
  lp::LoweredProblem solver(g, space);
  EXPECT_EQ(res.runtime[0].mean(), solver.solve(0, p.L).value);
  EXPECT_EQ(res.runtime[1].mean(), solver.solve(0, p.L + 10'000.0).value);
  EXPECT_EQ(res.lambda_L.mean(), solver.solve(0, p.L).gradient[0]);
}

/// The general path's metric rows (runtime per ΔL, λ_L, ρ_L, one tolerance
/// per band) for samples [0, spec.samples), computed the way the path ran
/// before it re-lowered in place: every edge factor drawn with
/// EdgeNoise::factor, and a fresh lowering of a PerturbedParamSpace per
/// sample.
std::vector<std::vector<double>> perturbed_reference_rows(
    const graph::Graph& g, const loggops::Params& base,
    const stoch::McSpec& spec) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < spec.samples; ++i) {
    Rng rng(stoch::sample_seed(spec.seed, static_cast<std::uint64_t>(i)));
    loggops::Params p = base;
    p.L = spec.L.sample(rng, base.L);
    p.o = spec.o.sample(rng, base.o);
    p.G = spec.G.sample(rng, base.G);
    std::shared_ptr<const lp::ParamSpace> space =
        std::make_shared<lp::LatencyParamSpace>(p);
    if (!spec.noise.degenerate()) {
      std::vector<double> factors(g.num_edges());
      for (double& f : factors) f = spec.noise.factor(rng);
      space = std::make_shared<lp::PerturbedParamSpace>(space, factors);
    }
    const lp::LoweredProblem prob(g, space);
    lp::LoweredProblem::Cursor cur;
    const double x0 = p.L + spec.delta_Ls[0];
    std::vector<double> row;
    for (const double d : spec.delta_Ls) {
      row.push_back(prob.solve(0, p.L + d, cur).value);
    }
    const lp::LoweredProblem::Solution s0 = prob.solve(0, x0);
    row.push_back(s0.gradient[0]);
    row.push_back(s0.value > 0.0 ? x0 * s0.gradient[0] / s0.value : 0.0);
    for (const double pct : spec.band_percents) {
      const double tol = prob.max_param_for_budget_from(
          0, x0, s0.value * (1.0 + pct / 100.0), cur);
      row.push_back(std::isfinite(tol) ? tol - x0 : tol);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The result's summaries, metric by metric in row order.
std::vector<const stoch::Summary*> summaries(const stoch::McResult& res) {
  std::vector<const stoch::Summary*> out;
  for (const auto& r : res.runtime) out.push_back(&r);
  out.push_back(&res.lambda_L);
  out.push_back(&res.rho_L);
  for (const auto& b : res.bands) out.push_back(&b.tolerance_delta);
  return out;
}

/// Edge noise with o, G and L all sampled: a 2% folded normal, and the
/// bias-only form, whose factors are all 1 + bias but whose draws still
/// run (the noise is not degenerate).
std::vector<stoch::McSpec> general_specs() {
  std::vector<stoch::McSpec> specs;
  for (const stoch::EdgeNoise noise :
       {stoch::EdgeNoise{0.02, 0.0}, stoch::EdgeNoise{0.0, 0.03}}) {
    stoch::McSpec spec;
    spec.samples = 37;
    spec.seed = 21;
    spec.L = stoch::Distribution::rel_normal(0.05);
    spec.o = stoch::Distribution::rel_normal(0.03);
    spec.G = stoch::Distribution::rel_normal(0.05);
    spec.noise = noise;
    spec.delta_Ls = {0.0, 20'000.0};
    spec.band_percents = {1.0, 5.0};
    specs.push_back(spec);
  }
  return specs;
}

TEST(StochMc, GeneralPathMatchesPerturbedReferenceWalk) {
  // The general path re-lowers one problem per worker in place and skips
  // the draw arithmetic of edges that carry no cost.  Folded in sample
  // order, the reference rows must give every summary bit for bit, at 1
  // and 4 threads (workers reuse their problems across many samples).
  const auto g = small_app_graph();
  const auto p = test_params();
  std::size_t free_edges = 0;
  for (const graph::Edge& e : g.edges()) free_edges += lp::carries_no_cost(e);
  ASSERT_GT(free_edges, 0u);
  for (stoch::McSpec spec : general_specs()) {
    SCOPED_TRACE(spec.noise.sigma);
    const auto rows = perturbed_reference_rows(g, p, spec);
    std::vector<stoch::Summary> ref(rows[0].size());
    for (const auto& row : rows) {
      for (std::size_t m = 0; m < row.size(); ++m) ref[m].add(row[m]);
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      spec.threads = threads;
      const auto res = stoch::run_mc(g, p, spec);
      EXPECT_FALSE(res.batched);
      const auto got = summaries(res);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t m = 0; m < ref.size(); ++m) {
        SCOPED_TRACE(m);
        expect_summaries_equal(*got[m], ref[m]);
      }
    }
  }
}

TEST(StochMc, GeneralPathEverySampleMatchesPerturbedReference) {
  // Per sample: a 3-sample run's min, median and max are its three values
  // exactly (the sketches are exact through five observations), so each
  // sample is pinned bitwise, and samples 1 and 2 run on a problem the
  // previous sample re-lowered.
  const auto g = small_app_graph();
  const auto p = test_params();
  for (stoch::McSpec spec : general_specs()) {
    spec.samples = 3;
    spec.threads = 1;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(seed);
      spec.seed = seed;
      const auto rows = perturbed_reference_rows(g, p, spec);
      const auto res = stoch::run_mc(g, p, spec);
      const auto got = summaries(res);
      ASSERT_EQ(got.size(), rows[0].size());
      for (std::size_t m = 0; m < got.size(); ++m) {
        SCOPED_TRACE(m);
        std::vector<double> finite;
        for (const auto& row : rows) {
          if (std::isfinite(row[m])) finite.push_back(row[m]);
        }
        std::sort(finite.begin(), finite.end());
        EXPECT_EQ(got[m]->unbounded(), rows.size() - finite.size());
        ASSERT_EQ(got[m]->count(), finite.size());
        if (finite.empty()) continue;
        EXPECT_EQ(got[m]->min(), finite.front());
        EXPECT_EQ(got[m]->max(), finite.back());
        if (finite.size() == 3) {
          EXPECT_EQ(got[m]->median(), finite[1]);
        }
      }
    }
  }
}

TEST(StochMc, OverflowingEdgeFactorIsTheReferenceError) {
  // Edge noise so wide that factors overflow to +inf: no draw is skipped
  // then, and the run fails with the reference's error, word for word.
  const auto g = small_app_graph();
  const auto p = test_params();
  stoch::McSpec spec = general_specs()[0];
  spec.noise = {1e308, 0.0};
  spec.samples = 2;
  ASSERT_FALSE(spec.noise.factors_finite());
  const auto message = [](const auto& run) -> std::string {
    try {
      run();
    } catch (const LpError& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string want =
      message([&] { (void)perturbed_reference_rows(g, p, spec); });
  EXPECT_NE(want, "no error");
  EXPECT_EQ(message([&] { (void)stoch::run_mc(g, p, spec); }), want);
}

TEST(StochMc, CrossBlockReductionIsSeamless) {
  // More samples than one reduction block (1024): the block boundary must
  // not drop or reorder samples.  Tiny graph keeps this fast.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = test_params();
  stoch::McSpec spec;
  spec.samples = 1100;
  spec.L = stoch::Distribution::rel_normal(0.02);
  spec.delta_Ls = {0.0};
  spec.band_percents = {};
  spec.threads = 4;
  const auto res = stoch::run_mc(g, p, spec);
  EXPECT_EQ(res.runtime[0].count() + res.runtime[0].unbounded(), 1100u);

  // And the result equals the serial run, as everywhere else.
  spec.threads = 1;
  const auto serial = stoch::run_mc(g, p, spec);
  expect_summaries_equal(res.runtime[0], serial.runtime[0]);
}

TEST(StochMc, SpecValidation) {
  const auto g = small_app_graph();
  const auto p = test_params();
  stoch::McSpec spec;
  spec.samples = 0;
  EXPECT_THROW(stoch::run_mc(g, p, spec), UsageError);
  spec = {};
  spec.delta_Ls = {};
  EXPECT_THROW(stoch::run_mc(g, p, spec), UsageError);
  spec = {};
  spec.delta_Ls = {-5.0};
  EXPECT_THROW(stoch::run_mc(g, p, spec), UsageError);
  spec = {};
  spec.band_percents = {-1.0};
  EXPECT_THROW(stoch::run_mc(g, p, spec), UsageError);
  spec = {};
  spec.noise = {-0.5, 0.0};
  EXPECT_THROW(stoch::run_mc(g, p, spec), UsageError);
}

TEST(StochMc, SummaryCountsUnboundedSeparately) {
  stoch::Summary s;
  s.add(1.0);
  s.add(std::numeric_limits<double>::infinity());
  s.add(3.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.unbounded(), 1u);
  EXPECT_EQ(s.mean(), 2.0);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(StochMc, SummaryTableMarksAllUnboundedMetrics) {
  stoch::McResult res;
  res.samples = 2;
  res.delta_Ls = {0.0};
  res.runtime.resize(1);
  res.runtime[0].add(5.0);
  res.runtime[0].add(7.0);
  res.lambda_L.add(1.0);
  res.lambda_L.add(1.0);
  res.rho_L.add(0.5);
  res.rho_L.add(0.5);
  res.bands.resize(1);
  res.bands[0].percent = 1.0;
  res.bands[0].tolerance_delta.add(
      std::numeric_limits<double>::infinity());
  res.bands[0].tolerance_delta.add(
      std::numeric_limits<double>::infinity());
  const auto t = stoch::mc_summary_table(res, /*human=*/false);
  const auto& rows = t.data();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[3][3], "unbounded");  // mean column of the band row
  EXPECT_EQ(rows[3][2], "2");          // unbounded count column
}

}  // namespace
}  // namespace llamp
