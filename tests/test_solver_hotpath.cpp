#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/solver_cache.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// Equivalence wall for the zero-allocation hot path: the segment-walk
// sweep, the workspace-reusing solve, and the flat/CSR edge-cost lowering
// must all be *bitwise* indistinguishable from a dense per-point solve()
// — across every registered application and across randomized LogGPS
// configurations — and a workspace must carry no state between solvers.

namespace llamp::lp {
namespace {


/// An ascending, irregular grid over [lo, hi] that deliberately includes
/// every piece boundary of T (the walk's worst case: anchors, replays, and
/// exact-breakpoint hits all occur).
std::vector<double> stress_grid(const LoweredProblem& solver, int k, double lo,
                                double hi, int points, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < points; ++i) {
    xs.push_back(lo + (hi - lo) * rng.uniform());
  }
  for (const double c : solver.critical_values(k, lo, hi)) xs.push_back(c);
  xs.push_back(lo);
  xs.push_back(hi);
  std::sort(xs.begin(), xs.end());
  return xs;
}

/// The core property: walk results equal dense per-point solves, bit for
/// bit, in both the value and the active slope.
void expect_walk_matches_dense(const LoweredProblem& solver, int k,
                               const std::vector<double>& xs) {
  LoweredProblem::Cursor ws;
  std::vector<LoweredProblem::SweepEval> walk(xs.size());
  solver.sweep(k, xs, ws, walk.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto dense = solver.solve(k, xs[i]);
    EXPECT_EQ(walk[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(walk[i].slope, dense.gradient[static_cast<std::size_t>(k)])
        << "k=" << k << " x=" << xs[i];
  }
}

TEST(SegmentWalk, BitwiseMatchesDenseOnAllRegisteredApps) {
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const auto space = std::make_shared<LatencyParamSpace>(p);
    LoweredProblem solver(g, space);
    const auto xs = stress_grid(solver, 0, 0.0, p.L + 100'000.0, 120,
                                0x5eedu + g.num_vertices());
    SCOPED_TRACE(app);
    expect_walk_matches_dense(solver, 0, xs);
  }
}

class RandomConfigTest : public ::testing::TestWithParam<std::uint64_t> {};

loggops::Params random_params(std::uint64_t seed) {
  Rng rng(seed);
  loggops::Params p;
  p.L = rng.uniform(0.0, 20'000.0);
  p.o = rng.uniform(0.0, 8'000.0);
  p.G = rng.uniform(0.0, 0.5);
  p.S = static_cast<std::uint64_t>(rng.uniform_int(16 * 1024, 512 * 1024));
  return p;
}

TEST_P(RandomConfigTest, WalkBitwiseMatchesDenseOnRandomPrograms) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam();
  cfg.nranks = 6;
  cfg.steps = 140;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 977 + 5);
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  const auto xs =
      stress_grid(solver, 0, 0.0, p.L + 200'000.0, 100, GetParam());
  expect_walk_matches_dense(solver, 0, xs);
}

TEST_P(RandomConfigTest, CsrFallbackWalkMatchesDense) {
  // LatencyBandwidthParamSpace has two-term edges and the pairwise HLogGP
  // space has too many parameters to flatten: both exercise the CSR
  // fallback rather than the flat per-parameter lowering.
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 77;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 31 + 9);

  LoweredProblem bw(g, std::make_shared<LatencyBandwidthParamSpace>(p));
  expect_walk_matches_dense(bw, 1,
                            stress_grid(bw, 1, 0.0, p.G + 2.0, 60, 3));

  const auto pair_space =
      std::make_shared<PairwiseLatencyParamSpace>(p, cfg.nranks);
  LoweredProblem pw(g, pair_space);
  const int k = pair_space->pair_index(0, cfg.nranks - 1);
  expect_walk_matches_dense(pw, k,
                            stress_grid(pw, k, 0.0, p.L + 80'000.0, 60, 4));
}

TEST_P(RandomConfigTest, WorkspaceVariantsAreBitwiseIdentical) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 321;
  cfg.nranks = 5;
  cfg.steps = 110;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 131 + 3);
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  const double lo = 0.0;
  const double hi = p.L + 120'000.0;

  const auto segs = solver.piecewise(0, lo, hi);
  const auto segs_ws = solver.piecewise(0, lo, hi, ws);
  ASSERT_EQ(segs.size(), segs_ws.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].lo, segs_ws[i].lo);
    EXPECT_EQ(segs[i].hi, segs_ws[i].hi);
    EXPECT_EQ(segs[i].slope, segs_ws[i].slope);
    EXPECT_EQ(segs[i].value_at_lo, segs_ws[i].value_at_lo);
  }
  // Segment slopes are the dense solver's own λ at interior points.
  for (const auto& seg : segs) {
    const double mid = 0.5 * (seg.lo + std::min(seg.hi, hi));
    EXPECT_NEAR(solver.solve(0, mid).gradient[0], seg.slope, 1e-9);
  }

  const auto crit = solver.critical_values(0, lo, hi);
  const auto crit_ws = solver.critical_values(0, lo, hi, ws);
  ASSERT_EQ(crit.size(), crit_ws.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    EXPECT_EQ(crit[i], crit_ws[i]);
  }

  const double budget = solver.solve(0, p.L).value * 1.05;
  const double tol = solver.max_param_for_budget(0, budget);
  EXPECT_EQ(tol, solver.max_param_for_budget(0, budget, ws));
  if (std::isfinite(tol)) {
    EXPECT_LE(solver.solve(0, tol).value,
              budget + 1e-9 * (1.0 + budget));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(Workspace, InterleavedSolversNeverLeakState) {
  // One workspace, three solvers over different graphs *and* different
  // parameter spaces (flat and CSR paths), interleaved: every result must
  // equal a fresh-workspace dense solve bit for bit.
  const auto g1 = testing::running_example_graph();
  testing::RandomProgramConfig cfg;
  cfg.seed = 9'001;
  cfg.nranks = 4;
  cfg.steps = 90;
  const auto g2 = schedgen::build_graph(testing::random_trace(cfg));
  const auto p1 = testing::running_example_params();
  const loggops::Params p2 = random_params(123);

  LoweredProblem a(g1, std::make_shared<LatencyParamSpace>(p1));
  LoweredProblem b(g2, std::make_shared<LatencyParamSpace>(p2));
  LoweredProblem c(g2, std::make_shared<LatencyBandwidthParamSpace>(p2));

  LoweredProblem::Cursor ws;
  for (int round = 0; round < 3; ++round) {
    for (const double x : {0.0, 385.0, 500.0, 1'000.0, 25'000.0}) {
      const auto& sa = a.solve(0, x, ws);
      const auto ra = a.solve(0, x);
      EXPECT_EQ(sa.value, ra.value);
      EXPECT_EQ(sa.gradient, ra.gradient);
      EXPECT_EQ(sa.lo, ra.lo);
      EXPECT_EQ(sa.hi, ra.hi);
      EXPECT_EQ(sa.messages, ra.messages);

      const auto& sb = b.solve(0, x, ws);
      const auto rb = b.solve(0, x);
      EXPECT_EQ(sb.value, rb.value);
      EXPECT_EQ(sb.gradient, rb.gradient);

      const auto& sc = c.solve(1, x * 1e-4, ws);
      const auto rc = c.solve(1, x * 1e-4);
      EXPECT_EQ(sc.value, rc.value);
      EXPECT_EQ(sc.gradient, rc.gradient);
    }
    // A walk on one solver between solves of the others must not perturb
    // anything either.
    const std::vector<double> xs = {0.0, 200.0, 400.0, 600.0, 5'000.0};
    std::vector<LoweredProblem::SweepEval> evals(xs.size());
    a.sweep(0, xs, ws, evals.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(evals[i].value, a.solve(0, xs[i]).value);
    }
  }
}

TEST(SweepApi, RejectsDescendingValues) {
  const auto g = testing::running_example_graph();
  LoweredProblem solver(
      g, std::make_shared<LatencyParamSpace>(testing::running_example_params()));
  LoweredProblem::Cursor ws;
  const std::vector<double> bad = {100.0, 50.0};
  std::vector<LoweredProblem::SweepEval> out(bad.size());
  EXPECT_THROW(solver.sweep(0, bad, ws, out.data()), LpError);
  EXPECT_THROW((void)solver.sweep(7, bad), LpError);
}

TEST(SweepApi, DuplicatesAndEmptyGridsAreFine) {
  const auto g = testing::running_example_graph();
  LoweredProblem solver(
      g, std::make_shared<LatencyParamSpace>(testing::running_example_params()));
  EXPECT_TRUE(solver.sweep(0, std::vector<double>{}).empty());
  const std::vector<double> xs = {500.0, 500.0, 500.0};
  const auto evals = solver.sweep(0, xs);
  ASSERT_EQ(evals.size(), 3u);
  EXPECT_EQ(evals[0].value, 1'615.0);
  EXPECT_EQ(evals[1].value, 1'615.0);
  EXPECT_EQ(evals[2].value, 1'615.0);
}

// ---------------------------------------------------------------------------
// LoweredProblem / Cursor split, anchor snapshots, and the SolverCache
// (PR 7): replay from a published anchor must be bitwise indistinguishable
// from a dense solve, whatever serves the query and however warm the cache.
// ---------------------------------------------------------------------------

TEST(LoweredProblem, OneLoweringServesManyCursors) {
  const auto g = testing::running_example_graph();
  const auto prob = std::make_shared<const LoweredProblem>(
      g,
      std::make_shared<LatencyParamSpace>(testing::running_example_params()));
  LoweredProblem::Cursor a;
  LoweredProblem::Cursor b;
  for (const double x : {0.0, 385.0, 500.0, 5'000.0}) {
    const LoweredProblem::Solution sa = prob->solve(0, x, a);
    const LoweredProblem::Solution sb = prob->solve(0, x, b);
    const auto sd = prob->solve(0, x);
    EXPECT_EQ(sa.value, sb.value);
    EXPECT_EQ(sa.value, sd.value);
    EXPECT_EQ(sa.gradient, sd.gradient);
    EXPECT_EQ(sa.lo, sd.lo);
    EXPECT_EQ(sa.hi, sd.hi);
  }
}

/// Solve at each anchor point through a cursor, snapshot the anchor, and
/// require replay_anchor to reproduce dense solves bitwise across the
/// anchor's whole stability zone.
void expect_replay_matches_dense(const LoweredProblem& prob, int k,
                                 const std::vector<double>& anchors) {
  ASSERT_TRUE(prob.flat());
  LoweredProblem::Cursor cur;
  for (const double x0 : anchors) {
    const auto& sol = prob.solve(k, x0, cur);
    LoweredProblem::AnchorState anchor;
    prob.save_anchor(cur, anchor);
    EXPECT_EQ(anchor.solution.value, sol.value);
    ASSERT_TRUE(anchor.covers(k, x0));
    std::vector<double> probes = {x0};
    if (std::isfinite(anchor.stable_hi)) {
      probes.push_back(x0 + 0.25 * (anchor.stable_hi - x0));
      probes.push_back(x0 + 0.75 * (anchor.stable_hi - x0));
    } else {
      probes.push_back(x0 + 1.0);
      probes.push_back(x0 + 12'345.0);
    }
    for (const double x : probes) {
      if (!anchor.covers(k, x)) continue;
      const auto ev = prob.replay_anchor(anchor, k, x);
      const auto dense = prob.solve(k, x);
      EXPECT_EQ(ev.value, dense.value) << "anchor=" << x0 << " x=" << x;
      EXPECT_EQ(ev.slope, dense.gradient[static_cast<std::size_t>(k)])
          << "anchor=" << x0 << " x=" << x;
    }
  }
}

TEST(AnchorReplay, BitwiseMatchesDenseOnAllRegisteredApps) {
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(p));
    SCOPED_TRACE(app);
    expect_replay_matches_dense(prob, 0,
                                {0.0, p.L, p.L + 7'000.0, p.L + 90'000.0});
  }
}

TEST_P(RandomConfigTest, AnchorReplayBitwiseMatchesDenseOnRandomPrograms) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 555;
  cfg.nranks = 5;
  cfg.steps = 120;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 31 + 17);
  const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(p));
  Rng rng(GetParam());
  std::vector<double> anchors;
  for (int i = 0; i < 12; ++i) {
    anchors.push_back(rng.uniform(0.0, p.L + 150'000.0));
  }
  expect_replay_matches_dense(prob, 0, anchors);
}

TEST(AnchorReplay, RejectsNonCoveringAnchorsAndCsrLowerings) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor cur;
  prob.solve(0, 0.0, cur);
  LoweredProblem::AnchorState anchor;
  prob.save_anchor(cur, anchor);
  // The first piece of the running example ends at L_c = 385: beyond the
  // stability zone (or behind the anchor point) replay must refuse, never
  // extrapolate.
  EXPECT_FALSE(anchor.covers(0, 1'000'000.0));
  EXPECT_THROW((void)prob.replay_anchor(anchor, 0, 1'000'000.0), LpError);
  EXPECT_THROW((void)prob.replay_anchor(anchor, 0, -1.0), LpError);
  // A never-solved cursor has no anchor to snapshot.
  LoweredProblem::Cursor idle;
  EXPECT_THROW(prob.save_anchor(idle, anchor), LpError);
  // Two-term edges lower to the CSR fallback: the anchor can be saved but
  // cursor-less replay is flat-only and must refuse.
  const LoweredProblem csr(g,
                           std::make_shared<LatencyBandwidthParamSpace>(p));
  EXPECT_FALSE(csr.flat());
  LoweredProblem::Cursor bw;
  csr.solve(1, p.G, bw);
  LoweredProblem::AnchorState csr_anchor;
  csr.save_anchor(bw, csr_anchor);
  EXPECT_THROW((void)csr.replay_anchor(csr_anchor, 1, p.G), LpError);
}

TEST(SolverCacheEntry, EvalIsBitwiseDenseColdWarmAndRepeated) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const core::GraphKey key{"running-example", 1, 1.0, p.S};
  const auto entry = cache.latency(key, g, p);
  const LoweredProblem dense(g, std::make_shared<LatencyParamSpace>(p));

  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(rng.uniform(0.0, 5'000.0));
  // Repeats, the knot, and nearby points: the replay-heavy shapes.
  xs.insert(xs.end(), {385.0, 385.0, 500.0, 500.0, 500.5, 501.0});

  LoweredProblem::Cursor cur;
  std::vector<double> first_values;
  for (const double x : xs) {
    const auto ev = entry->eval(0, x, cur);
    const auto ref = dense.solve(0, x);
    EXPECT_EQ(ev.value, ref.value) << "x=" << x;
    EXPECT_EQ(ev.slope, ref.gradient[0]) << "x=" << x;
    first_values.push_back(ev.value);
  }
  const auto cold = cache.stats();
  EXPECT_GT(cold.anchor_solves, 0u);
  EXPECT_LE(entry->anchor_count(), 64u);

  // Warm second pass: same bytes, now served by anchor replay.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(entry->eval(0, xs[i], cur).value, first_values[i]);
  }
  const auto warm = cache.stats();
  EXPECT_GT(warm.replays, cold.replays);
  EXPECT_EQ(warm.built, cold.built);
}

TEST(SolverCacheStats, KeysOnGraphKeyAndParamFingerprint) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const core::GraphKey key{"running-example", 1, 1.0, p.S};
  const auto a = cache.latency(key, g, p);
  const auto b = cache.latency(key, g, p);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->problem().get(), b->problem().get());
  loggops::Params p2 = p;
  p2.L += 1.0;
  const auto c = cache.latency(key, g, p2);
  EXPECT_NE(a.get(), c.get());
  // The bandwidth space is a distinct fingerprint under the same key; its
  // CSR lowering always dense-solves but is still shared.
  const auto bw = cache.latency_bandwidth(key, g, p);
  EXPECT_NE(a.get(), bw.get());
  EXPECT_FALSE(bw->problem()->flat());
  LoweredProblem::Cursor cur;
  const LoweredProblem dense(g, std::make_shared<LatencyBandwidthParamSpace>(p));
  const auto ev = bw->eval(1, p.G, cur);
  const auto ref = dense.solve(1, p.G);
  EXPECT_EQ(ev.value, ref.value);
  EXPECT_EQ(ev.slope, ref.gradient[1]);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.built, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_NE(cache.stats_string().find("solvers: built=3"), std::string::npos);
}

TEST(SolverCacheEntry, ConcurrentEvalsAreBitwiseDense) {
  // 8 threads hammer one entry with overlapping repeated/nearby queries,
  // racing anchor publication; every result must equal the dense value.
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, p.S}, g, p);
  const LoweredProblem dense(g, std::make_shared<LatencyParamSpace>(p));

  std::vector<double> xs;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) xs.push_back(rng.uniform(0.0, 4'000.0));
  std::vector<double> refs;
  for (const double x : xs) refs.push_back(dense.solve(0, x).value);

  constexpr int kThreads = 8;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LoweredProblem::Cursor cur;
      // Distinct starting offsets so threads race different anchors.
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(t) * 25) %
                              xs.size();
        got[static_cast<std::size_t>(t)].push_back(
            entry->eval(0, xs[j], cur).value);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::size_t j =
          (i + static_cast<std::size_t>(t) * 25) % xs.size();
      ASSERT_EQ(got[static_cast<std::size_t>(t)][i], refs[j])
          << "thread=" << t << " x=" << xs[j];
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(const std::vector<double>& vs) {
  std::vector<std::uint64_t> out;
  for (const double v : vs) out.push_back(bits(v));
  return out;
}

TEST(SolverCacheEntry, MemoizedCallsAreBitwiseDirectOnAllRegisteredApps) {
  // Algorithm 2, the tolerance search, and λ_G served through an entry
  // must equal direct LoweredProblem calls bit for bit: on the computing
  // (cold) call and on the memo hit (warm) that repeats it.
  for (const std::string& app : apps::app_names()) {
    SCOPED_TRACE(app);
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    core::SolverCache cache;
    const core::GraphKey key{app, ranks, 0.02, p.S};
    const auto entry = cache.latency(key, g, p);
    const auto bw = cache.latency_bandwidth(key, g, p);
    const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
    const LoweredProblem direct_bw(
        g, std::make_shared<LatencyBandwidthParamSpace>(p));
    LoweredProblem::Cursor cur;
    LoweredProblem::Cursor dcur;

    const double base = direct.solve(0, p.L).value;
    const double hi = p.L + 20'000.0;
    const double step = 20'000.0 / 64.0;
    const auto ref_crit = bits(direct.critical_values_algorithm2(0, p.L, hi, step));
    const auto ref_bw = direct_bw.solve(1, p.G);
    std::vector<std::uint64_t> ref_tols;
    for (const double pct : {0.0, 1.0, 2.0, 5.0}) {
      ref_tols.push_back(bits(direct.max_param_for_budget_from(
          0, p.L, base * (1.0 + pct / 100.0), dcur)));
    }

    for (int round = 0; round < 2; ++round) {
      const auto before = cache.stats();
      EXPECT_EQ(bits(entry->critical_values_algorithm2(0, p.L, hi, step)),
                ref_crit);
      const auto ev = bw->eval(1, p.G, cur);
      EXPECT_EQ(bits(ev.value), bits(ref_bw.value));
      EXPECT_EQ(bits(ev.slope), bits(ref_bw.gradient[1]));
      std::size_t i = 0;
      for (const double pct : {0.0, 1.0, 2.0, 5.0}) {
        EXPECT_EQ(bits(entry->max_param_for_budget_from(
                      0, p.L, base * (1.0 + pct / 100.0), cur)),
                  ref_tols[i++])
            << "round=" << round << " pct=" << pct;
      }
      const auto after = cache.stats();
      if (round == 0) {
        EXPECT_EQ(after.memo_misses - before.memo_misses, 6u);
        EXPECT_EQ(after.memo_hits, before.memo_hits);
      } else {
        EXPECT_EQ(after.memo_misses, before.memo_misses);
        EXPECT_EQ(after.memo_hits - before.memo_hits, 6u);
        EXPECT_EQ(after.memo_bytes, before.memo_bytes);
        EXPECT_EQ(after.anchor_solves, before.anchor_solves);
      }
    }
  }
}

TEST(SolverCacheEntry, MemoCapKeepsFirstEntriesAndPastCapCallsStayBitwise) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, p.S}, g, p);
  const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor cur;
  LoweredProblem::Cursor dcur;
  constexpr std::size_t kCap = core::SolverCache::Entry::kMaxMemo;

  // T(500) = 1615: budgets above it all succeed, one per distinct key.
  const auto budget = [](std::size_t i) {
    return 1'615.0 + 7.0 * static_cast<double>(i);
  };
  for (std::size_t i = 0; i < kCap + 8; ++i) {
    EXPECT_EQ(bits(entry->max_param_for_budget_from(0, 500.0, budget(i), cur)),
              bits(direct.max_param_for_budget_from(0, 500.0, budget(i), dcur)))
        << "i=" << i;
  }
  const auto full = cache.stats();
  EXPECT_EQ(full.memo_misses, kCap + 8);
  EXPECT_GT(full.memo_bytes, 0u);

  // The first kCap keys are stored: repeats hit.  Keys past the cap were
  // computed but dropped: repeats compute again, still bitwise direct, and
  // the stored bytes do not grow.
  (void)entry->max_param_for_budget_from(0, 500.0, budget(0), cur);
  (void)entry->max_param_for_budget_from(0, 500.0, budget(kCap - 1), cur);
  EXPECT_EQ(cache.stats().memo_hits, 2u);
  const double past = entry->max_param_for_budget_from(0, 500.0, budget(kCap), cur);
  EXPECT_EQ(bits(past),
            bits(direct.max_param_for_budget_from(0, 500.0, budget(kCap), dcur)));
  const auto after = cache.stats();
  EXPECT_EQ(after.memo_misses, kCap + 9);
  EXPECT_EQ(after.memo_bytes, full.memo_bytes);

  // Bit-pattern keys: -0.0 is a different key from 0.0 (a miss, not a
  // hit), even though the two compare equal.
  (void)entry->critical_values_algorithm2(0, 0.0, 1'000.0, 0.0);
  const auto z = cache.stats();
  (void)entry->critical_values_algorithm2(0, 0.0, 1'000.0, -0.0);
  EXPECT_EQ(cache.stats().memo_misses, z.memo_misses + 1);
}

TEST(SolverCacheEntry, ThrowingCallsAreNeverMemoized) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, p.S}, g, p);
  LoweredProblem::Cursor cur;
  // T(500) = 1615 already exceeds a 1000 budget: LpError, every time.
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW((void)entry->max_param_for_budget_from(0, 500.0, 1'000.0, cur),
                 LpError);
    EXPECT_THROW((void)entry->critical_values_algorithm2(0, 10.0, 1.0, 0.0),
                 LpError);
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.memo_misses, 6u) << "each throwing call recomputes";
  EXPECT_EQ(s.memo_hits, 0u);
  EXPECT_EQ(s.memo_bytes, 0u);
  // The entry still serves the same key's neighbours normally.
  EXPECT_EQ(entry->max_param_for_budget_from(0, 500.0, 1'615.0, cur), 500.0);
}

TEST(SolverCacheEntry, ConcurrentMemoizedCallsAreBitwiseDirect) {
  // 8 threads race first touches and hits of all three memos on one
  // entry pair; every answer must equal the direct call.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  core::SolverCache cache;
  const core::GraphKey key{"lulesh", 8, 0.02, p.S};
  const auto entry = cache.latency(key, g, p);
  const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
  const LoweredProblem direct_bw(
      g, std::make_shared<LatencyBandwidthParamSpace>(p));
  const double base = direct.solve(0, p.L).value;

  constexpr int kKeys = 12;
  std::vector<std::uint64_t> ref_tol;
  std::vector<std::vector<std::uint64_t>> ref_crit;
  std::vector<std::uint64_t> ref_bw;
  LoweredProblem::Cursor dcur;
  for (int i = 0; i < kKeys; ++i) {
    ref_tol.push_back(bits(direct.max_param_for_budget_from(
        0, p.L, base * (1.0 + 0.5 * i / 100.0), dcur)));
    ref_crit.push_back(bits(direct.critical_values_algorithm2(
        0, p.L, p.L + 1'000.0 * (i + 1), 250.0)));
    ref_bw.push_back(bits(direct_bw.solve(1, p.G * (1.0 + i)).gradient[1]));
  }

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LoweredProblem::Cursor cur;
      const auto bw = cache.latency_bandwidth(key, g, p);
      for (int r = 0; r < 3 * kKeys; ++r) {
        const int i = (r + 5 * t) % kKeys;
        if (bits(entry->max_param_for_budget_from(
                0, p.L, base * (1.0 + 0.5 * i / 100.0), cur)) != ref_tol[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (bits(entry->critical_values_algorithm2(
                0, p.L, p.L + 1'000.0 * (i + 1), 250.0)) != ref_crit[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (bits(bw->eval(1, p.G * (1.0 + i), cur).slope) != ref_bw[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread=" << t;
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.memo_hits + s.memo_misses,
            static_cast<std::size_t>(kThreads * 3 * kKeys * 3));
  EXPECT_GE(s.memo_misses, static_cast<std::size_t>(3 * kKeys));
}

// ---------------------------------------------------------------------------
// max_param_for_budget boundary contract (PR 7 bugfix): exact knot ties,
// budgets inside the eps band, and budgets already violated at the anchor
// all have pinned, cursor-state-independent answers.
// ---------------------------------------------------------------------------

TEST(BudgetBoundary, KnotTiesEpsBandAndViolatedAnchors) {
  // Running example: T(L) = max(L + 1115, 1500) with the knot at L_c = 385
  // and base L = 500 (T = 1615).
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  // Budget exactly ties the knot value: the answer is the knot (the whole
  // flat piece meets the budget; 385 is its right end), not +inf and not
  // the anchor.
  const double knot = solver.max_param_for_budget_from(0, 0.0, 1'500.0, ws);
  EXPECT_NEAR(knot, 385.0, 1e-5);
  EXPECT_LE(solver.solve(0, knot).value, 1'500.0 + 1e-9 * (1.0 + 1'500.0));

  // Budget exactly T(from): the answer is `from` itself, never below it.
  EXPECT_EQ(solver.max_param_for_budget_from(0, 500.0, 1'615.0, ws), 500.0);

  // Budget inside the eps band below T(from): still clamped to `from`
  // (the pre-fix code could walk backwards past the anchor here).
  const double teps = 1e-9 * (1.0 + 1'615.0);
  const double r =
      solver.max_param_for_budget_from(0, 500.0, 1'615.0 - 0.5 * teps, ws);
  EXPECT_EQ(r, 500.0);

  // Budget already violated beyond the eps band: a defined error, both
  // from an explicit anchor and from the space's base point (T(500) = 1615
  // exceeds both budgets).
  EXPECT_THROW((void)solver.max_param_for_budget_from(0, 500.0, 1'550.0, ws),
               LpError);
  EXPECT_THROW((void)solver.max_param_for_budget(0, 1'000.0), LpError);

  // Cursor-state independence: a cursor that just served unrelated solves
  // and a fresh one agree bitwise at every boundary shape, knot tie
  // included.
  solver.solve(0, 4'999.0, ws);
  LoweredProblem::Cursor fresh;
  EXPECT_EQ(solver.max_param_for_budget_from(0, 0.0, 1'500.0, ws),
            solver.max_param_for_budget_from(0, 0.0, 1'500.0, fresh));
  for (const double budget : {1'615.0, 1'616.0, 2'000.0, 1e9}) {
    EXPECT_EQ(solver.max_param_for_budget(0, budget, ws),
              solver.max_param_for_budget(0, budget, fresh))
        << "budget=" << budget;
  }
}

TEST_P(RandomConfigTest, BudgetBoundaryAgreesAcrossCursorStates) {
  // On random programs: results are >= the anchor, meet the budget within
  // eps, and never depend on prior cursor state.
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 808;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 53 + 29);
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor warm;
  const double base_value = solver.solve(0, p.L, warm).value;
  for (const double factor : {1.0, 1.0 + 1e-12, 1.001, 1.05, 1.5}) {
    const double budget = base_value * factor;
    const double a = solver.max_param_for_budget_from(0, p.L, budget, warm);
    LoweredProblem::Cursor fresh;
    const double b = solver.max_param_for_budget_from(0, p.L, budget, fresh);
    EXPECT_EQ(a, b) << "factor=" << factor;
    EXPECT_GE(a, p.L);
    if (std::isfinite(a)) {
      EXPECT_LE(solver.solve(0, a).value, budget + 1e-9 * (1.0 + budget));
    }
  }
}

// ---------------------------------------------------------------------------
// Batched sample-axis kernel (PR 8): solve_batch / solve_batch_ranges must
// be bitwise indistinguishable from n independent dense solves — across
// every registered app, random LogGPS configurations, the flat and CSR
// lowerings, and every block-boundary shape (n below, at, and off multiples
// of kBatchWidth, so the last_pow2 tail dispatch is exercised too).
// ---------------------------------------------------------------------------

/// Unordered lane values (the batch API, unlike sweep, imposes no order):
/// random points, duplicates, and the interval ends shuffled together.
std::vector<double> batch_grid(double lo, double hi, int points,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < points; ++i) {
    xs.push_back(lo + (hi - lo) * rng.uniform());
  }
  xs.push_back(hi);
  xs.push_back(lo);
  if (!xs.empty()) xs.push_back(xs.front());  // a duplicate lane
  return xs;
}

void expect_batch_matches_dense(const LoweredProblem& solver, int k,
                                const std::vector<double>& xs,
                                LoweredProblem::BatchCursor& bc) {
  std::vector<LoweredProblem::BatchPoint> plain(xs.size());
  std::vector<LoweredProblem::BatchPoint> ranged(xs.size());
  solver.solve_batch(k, xs.data(), xs.size(), bc, plain.data());
  solver.solve_batch_ranges(k, xs.data(), xs.size(), bc, ranged.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto dense = solver.solve(k, xs[i]);
    const double dslope = dense.gradient[static_cast<std::size_t>(k)];
    EXPECT_EQ(plain[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(plain[i].slope, dslope) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].slope, dslope) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].lo, dense.lo) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].hi, dense.hi) << "k=" << k << " x=" << xs[i];
  }
}

TEST(BatchSolve, BitwiseMatchesDenseOnAllRegisteredApps) {
  LoweredProblem::BatchCursor bc;  // shared across apps: reuse must not leak state
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
    SCOPED_TRACE(app);
    expect_batch_matches_dense(
        solver, 0,
        batch_grid(0.0, p.L + 100'000.0, 17, 0xba7c4u + g.num_vertices()),
        bc);
  }
}

TEST_P(RandomConfigTest, BatchBitwiseMatchesDenseAtEveryBlockBoundary) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 4'242;
  cfg.nranks = 5;
  cfg.steps = 110;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 271 + 13);
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::BatchCursor bc;
  const auto xs =
      batch_grid(0.0, p.L + 200'000.0, 31, GetParam() * 7 + 1);
  // Prefix lengths straddling every sub-block shape the tail dispatch can
  // take: 1..9 covers the pow2 ladder, 15/16/17 the full-block boundary.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{6}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        xs.size()}) {
    SCOPED_TRACE(n);
    expect_batch_matches_dense(
        solver, 0, std::vector<double>(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(n)), bc);
  }
}

TEST_P(RandomConfigTest, BatchCsrFallbackBitwiseMatchesDense) {
  // Two-term edges (bandwidth) and the pairwise space both bypass the flat
  // lowering; the batch kernel's CSR lane walk must match the scalar term
  // walk bitwise.
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 2'024;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 631 + 7);
  LoweredProblem::BatchCursor bc;

  LoweredProblem bw(g, std::make_shared<LatencyBandwidthParamSpace>(p));
  expect_batch_matches_dense(bw, 1, batch_grid(0.0, p.G + 2.0, 13, 21), bc);

  const auto pair_space =
      std::make_shared<PairwiseLatencyParamSpace>(p, cfg.nranks);
  LoweredProblem pw(g, pair_space);
  const int k = pair_space->pair_index(0, cfg.nranks - 1);
  expect_batch_matches_dense(pw, k,
                             batch_grid(0.0, p.L + 80'000.0, 13, 22), bc);
}

TEST_P(RandomConfigTest, BatchBudgetSearchBitwiseMatchesScalar) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 909;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 47 + 19);
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  const double base_value = solver.solve(0, p.L).value;

  // 10 lanes (not a multiple of the block width): anchors on and off the
  // base point, budgets from exact ties through loose, including the eps
  // band clamp shapes of the BudgetBoundary wall.
  std::vector<double> from;
  std::vector<double> budget;
  for (const double factor : {1.0, 1.0 + 1e-12, 1.001, 1.05, 1.5}) {
    from.push_back(p.L);
    budget.push_back(base_value * factor);
    from.push_back(0.0);
    budget.push_back(base_value * factor);
  }
  std::vector<double> batch(from.size());
  LoweredProblem::BatchCursor bc;
  solver.max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                         from.size(), bc, batch.data());
  for (std::size_t i = 0; i < from.size(); ++i) {
    LoweredProblem::Cursor ws;
    EXPECT_EQ(batch[i],
              solver.max_param_for_budget_from(0, from[i], budget[i], ws))
        << "lane=" << i << " from=" << from[i] << " budget=" << budget[i];
  }
}

TEST(BatchSolve, ErrorsAndEdgeShapesMatchScalarContracts) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::BatchCursor bc;
  std::vector<double> xs = {0.0, 500.0};
  std::vector<LoweredProblem::BatchPoint> out(xs.size());
  // Out-of-range active parameter: same LpError as solve().
  EXPECT_THROW(solver.solve_batch(7, xs.data(), xs.size(), bc, out.data()),
               LpError);
  // n = 0 is a no-op.
  solver.solve_batch(0, xs.data(), 0, bc, out.data());
  // An infeasible lane throws the scalar's infeasibility error even when
  // other lanes are feasible (T(500) = 1615 > 1550).
  std::vector<double> from = {500.0, 500.0};
  std::vector<double> budget = {2'000.0, 1'550.0};
  std::vector<double> tol(from.size());
  EXPECT_THROW(solver.max_param_for_budget_from_batch(
                   0, from.data(), budget.data(), from.size(), bc,
                   tol.data()),
               LpError);
  // The paper's running example through the batch path: T(L) numbers of
  // Fig. 4c at block width and off it.
  std::vector<double> grid;
  for (int i = 0; i < 11; ++i) grid.push_back(i * 100.0);
  std::vector<LoweredProblem::BatchPoint> pts(grid.size());
  solver.solve_batch(0, grid.data(), grid.size(), bc, pts.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(pts[i].value, std::max(grid[i] + 1'115.0, 1'500.0));
    EXPECT_EQ(pts[i].slope, grid[i] >= 385.0 ? 1.0 : 0.0);
  }
}

// ---------------------------------------------------------------------------
// Algorithm 2 bit wall: the lane-batched scan (speculative grid runs served
// by solve_batch_ranges) must return exactly what the one-dense-solve-per-hop
// scan returned, bit for bit, for every registered app, both lowerings, and
// step shapes that never hop on the grid (0), land the grid exactly on lo
// (range/64), stop short of lo before the tail probe (range/7), and probe
// the tail straight away (> range).
// ---------------------------------------------------------------------------

/// The scalar scan, built on the public solve(): the reference the batched
/// critical_values_algorithm2 is pinned against.
std::vector<double> scalar_algorithm2(const LoweredProblem& prob, int k,
                                      double lo, double hi, double step,
                                      double eps = 1e-6) {
  LoweredProblem::Cursor cur;
  std::vector<double> lc;
  double L = hi;
  double lambda = std::numeric_limits<double>::quiet_NaN();
  double prev_lo = std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < (1u << 20); ++iter) {
    const auto& s = prob.solve(k, L, cur);
    const double lambda_new = s.gradient[static_cast<std::size_t>(k)];
    const double lo_new = s.lo;
    if (!std::isnan(lambda) && std::fabs(lambda_new - lambda) > 1e-12) {
      if (prev_lo >= lo - eps && prev_lo <= hi + eps) lc.push_back(prev_lo);
    }
    lambda = lambda_new;
    prev_lo = lo_new;
    if (!(lo_new >= lo)) break;
    L = std::min(L - step, lo_new - eps);
    if (L < lo) {
      const auto& tail = prob.solve(k, lo, cur);
      if (std::fabs(tail.gradient[static_cast<std::size_t>(k)] - lambda) >
              1e-12 &&
          lo_new >= lo - eps && lo_new <= hi + eps) {
        lc.push_back(lo_new);
      }
      break;
    }
  }
  std::sort(lc.begin(), lc.end());
  lc.erase(std::unique(lc.begin(), lc.end(),
                       [](double a, double b) {
                         return std::fabs(a - b) < 1e-9;
                       }),
           lc.end());
  return lc;
}

void expect_algorithm2_matches_scalar(const LoweredProblem& prob, int k,
                                      double lo, double hi) {
  const double range = hi - lo;
  for (const double step : {0.0, range / 64.0, range / 7.0, 1.5 * range}) {
    // step = 0 hops by eps through every near-tie of a jittered app graph;
    // a 1/64 window keeps that scan short.
    const double top = step == 0.0 ? lo + range / 64.0 : hi;
    EXPECT_EQ(bits(prob.critical_values_algorithm2(k, lo, top, step)),
              bits(scalar_algorithm2(prob, k, lo, top, step)))
        << "k=" << k << " lo=" << lo << " hi=" << top << " step=" << step;
  }
}

TEST(Algorithm2Batched, BitwiseMatchesScalarScanOnAllRegisteredApps) {
  for (const std::string& app : apps::app_names()) {
    for (const double scale : {0.02, 0.05}) {
      SCOPED_TRACE(::testing::Message() << app << " scale=" << scale);
      const int ranks = apps::supported_ranks(app, 8);
      const auto g =
          schedgen::build_graph(apps::make_app_trace(app, ranks, scale));
      const auto p = loggops::NetworkConfig::cscs_testbed();
      const LoweredProblem flat(g, std::make_shared<LatencyParamSpace>(p));
      ASSERT_TRUE(flat.flat());
      expect_algorithm2_matches_scalar(flat, 0, p.L, p.L + 20'000.0);
      const LoweredProblem csr(
          g, std::make_shared<LatencyBandwidthParamSpace>(p));
      ASSERT_FALSE(csr.flat());
      expect_algorithm2_matches_scalar(csr, 1, p.G, p.G + 0.05);
    }
  }
}

TEST(Algorithm2Batched, GridEdgeShapesMatchScalarScan) {
  // The running example's single breakpoint (L_c = 385) against grids
  // whose runs reach lo mid-batch, straddle L_c, or start on it, plus
  // random programs whose grids hop off and back on.
  const auto g = testing::running_example_graph();
  const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(
                                  testing::running_example_params()));
  for (const double lo : {0.0, 100.0, 385.0}) {
    for (const double hi : {385.0, 500.0, 1'000.0, 7'000.0}) {
      if (lo > hi) continue;
      for (const double step : {1.0, 3.0, 17.0, 50.0, 384.0}) {
        EXPECT_EQ(bits(prob.critical_values_algorithm2(0, lo, hi, step)),
                  bits(scalar_algorithm2(prob, 0, lo, hi, step)))
            << "lo=" << lo << " hi=" << hi << " step=" << step;
      }
    }
  }
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    testing::RandomProgramConfig cfg;
    cfg.seed = seed + 77;
    cfg.nranks = 5;
    cfg.steps = 100;
    const auto rg = schedgen::build_graph(testing::random_trace(cfg));
    const loggops::Params p = random_params(seed * 13 + 5);
    const LoweredProblem rp(rg, std::make_shared<LatencyParamSpace>(p));
    SCOPED_TRACE(seed);
    expect_algorithm2_matches_scalar(rp, 0, 0.0, p.L + 100'000.0);
  }
}

TEST(SegmentWalk, RunningExampleAnchorsOncePerPiece) {
  // The running example has exactly two pieces (L_c = 385 ns); a 200-point
  // walk must reproduce the paper's numbers at every grid point.
  const auto g = testing::running_example_graph();
  LoweredProblem solver(
      g, std::make_shared<LatencyParamSpace>(testing::running_example_params()));
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(i * 5.0);
  const auto evals = solver.sweep(0, xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expect =
        std::max(xs[i] + 1'115.0, 1'500.0);  // T(L) of Fig. 4c
    EXPECT_DOUBLE_EQ(evals[i].value, expect) << "x=" << xs[i];
    // At L_c itself both pieces tie and the solver breaks toward the
    // larger slope.
    EXPECT_EQ(evals[i].slope, xs[i] >= 385.0 ? 1.0 : 0.0) << "x=" << xs[i];
  }
}

}  // namespace
}  // namespace llamp::lp
