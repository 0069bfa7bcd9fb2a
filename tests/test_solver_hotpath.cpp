#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "core/solver_cache.hpp"
#include "graph/costs.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "test_support.hpp"
#include "topo/spaces.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// Equivalence wall for the zero-allocation hot path: anchor replay over a
// grid, the workspace-reusing solve, and the flat/CSR edge-cost lowering
// must all be *bitwise* indistinguishable from a dense per-point solve()
// — across every registered application and across randomized LogGPS
// configurations — and a workspace must carry no state between solvers.

namespace llamp::lp {
namespace {


/// An ascending, irregular grid over [lo, hi] that deliberately includes
/// every piece boundary of T (the replay walk's worst case: anchors,
/// replays, and exact-breakpoint hits all occur).
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

/// T and λ at every x of `xs` for parameter k by replay: a point the
/// last anchor covers is replayed from it, any other gets a dense solve
/// through `ws` and becomes the new anchor.  Returns the replayed count.
std::size_t replay_walk(const LoweredProblem& solver, int k,
                        const std::vector<double>& xs,
                        LoweredProblem::Cursor& ws,
                        std::vector<LoweredProblem::BatchPoint>& out) {
  out.resize(xs.size());
  LoweredProblem::AnchorState anchor;
  bool have = false;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (have && anchor.covers(k, xs[i])) {
      ++replays;
    } else {
      (void)solver.solve(k, xs[i], ws);
      solver.save_anchor(ws, anchor);
      have = true;
    }
    out[i] = solver.replay_anchor(anchor, k, xs[i]);
  }
  return replays;
}

/// The core property: replay inside a stability zone equals dense
/// per-point solves, bit for bit, in both the value and the active slope.
void expect_walk_matches_dense(const LoweredProblem& solver, int k,
                               const std::vector<double>& xs) {
  LoweredProblem::Cursor ws;
  std::vector<LoweredProblem::BatchPoint> walk;
  const std::size_t replays = replay_walk(solver, k, xs, ws, walk);
  EXPECT_GT(replays, 0u) << "no grid point was replayed";
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
  // LatencyBandwidthParamSpace and the pairwise HLogGP space both have
  // more than one parameter: both exercise the CSR lowering rather than
  // the flat one.
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

  // Segment slopes are the dense solver's own λ at interior points; the
  // solves warm `ws` for the search below.
  const auto segs = solver.piecewise(0, lo, hi);
  for (const auto& seg : segs) {
    const double mid = 0.5 * (seg.lo + std::min(seg.hi, hi));
    EXPECT_NEAR(solver.solve(0, mid, ws).gradient[0], seg.slope, 1e-9);
  }

  // The critical values are the segment boundaries, bit for bit.
  const auto crit = solver.critical_values(0, lo, hi);
  ASSERT_EQ(crit.size() + 1, segs.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    EXPECT_EQ(crit[i], segs[i + 1].lo);
  }

  // A search on the warm cursor returns the fresh cursor's bits.
  const double budget = solver.solve(0, p.L).value * 1.05;
  const double tol = testing::tolerance(solver, 0, budget);
  EXPECT_EQ(tol, testing::tolerance(solver, 0, p.L, budget, ws));
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
    // A replay walk on one solver between solves of the others must not
    // perturb anything either.
    const std::vector<double> xs = {0.0, 200.0, 400.0, 600.0, 5'000.0};
    std::vector<LoweredProblem::BatchPoint> evals;
    (void)replay_walk(a, 0, xs, ws, evals);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(evals[i].value, a.solve(0, xs[i]).value);
    }
  }
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
/// anchor's whole stability zone.  Returns the number of interior replays
/// checked (probes strictly past an anchor point).
std::size_t expect_replay_matches_dense(const LoweredProblem& prob, int k,
                                        const std::vector<double>& anchors) {
  std::size_t interior = 0;
  LoweredProblem::Cursor cur;
  for (const double x0 : anchors) {
    const auto& sol = prob.solve(k, x0, cur);
    LoweredProblem::AnchorState anchor;
    prob.save_anchor(cur, anchor);
    EXPECT_EQ(anchor.solution.value, sol.value);
    EXPECT_TRUE(anchor.covers(k, x0));
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
      if (x != x0) ++interior;
      const auto ev = prob.replay_anchor(anchor, k, x);
      const auto dense = prob.solve(k, x);
      EXPECT_EQ(ev.value, dense.value) << "anchor=" << x0 << " x=" << x;
      EXPECT_EQ(ev.slope, dense.gradient[static_cast<std::size_t>(k)])
          << "anchor=" << x0 << " x=" << x;
    }
  }
  return interior;
}

TEST(AnchorReplay, BitwiseMatchesDenseOnAllRegisteredApps) {
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(p));
    SCOPED_TRACE(app);
    ASSERT_TRUE(prob.flat());
    expect_replay_matches_dense(prob, 0,
                                {0.0, p.L, p.L + 7'000.0, p.L + 90'000.0});
  }
}

TEST(AnchorReplay, CsrAnchorsBitwiseMatchDenseOnAllRegisteredApps) {
  // The CSR lowering replays through the same slot-ordered chain walk:
  // two-term edges (latency_bandwidth, k = G) and a pairwise space (one
  // parameter per rank pair).
  const auto p = loggops::NetworkConfig::cscs_testbed();
  std::size_t interior = 0;
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    SCOPED_TRACE(app);
    const LoweredProblem bw(g,
                            std::make_shared<LatencyBandwidthParamSpace>(p));
    ASSERT_FALSE(bw.flat());
    interior += expect_replay_matches_dense(
        bw, 1, {0.0, p.G, p.G + 0.05, 2.0 * p.G + 1.0});
    const auto pair_space =
        std::make_shared<PairwiseLatencyParamSpace>(p, ranks);
    const LoweredProblem pw(g, pair_space);
    ASSERT_FALSE(pw.flat());
    interior += expect_replay_matches_dense(
        pw, pair_space->pair_index(0, ranks - 1),
        {0.0, p.L, p.L + 7'000.0, p.L + 90'000.0});
  }
  EXPECT_GT(interior, 0u) << "no probe exercised an interior replay";
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

TEST(AnchorReplay, RejectsNonCoveringAnchors) {
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
  // A CSR anchor refuses the same way outside its zone, and serves its own
  // point bitwise.
  const LoweredProblem csr(g,
                           std::make_shared<LatencyBandwidthParamSpace>(p));
  EXPECT_FALSE(csr.flat());
  LoweredProblem::Cursor bw;
  csr.solve(1, p.G, bw);
  LoweredProblem::AnchorState csr_anchor;
  csr.save_anchor(bw, csr_anchor);
  EXPECT_EQ(csr.replay_anchor(csr_anchor, 1, p.G).value,
            csr.solve(1, p.G).value);
  EXPECT_THROW((void)csr.replay_anchor(csr_anchor, 0, p.G), LpError);
  EXPECT_THROW((void)csr.replay_anchor(csr_anchor, 1, p.G - 1.0), LpError);
}

/// The entry's point read: a one-lane eval_batch.
LoweredProblem::BatchPoint entry_point(core::SolverCache::Entry& entry, int k,
                                       double x, LoweredProblem::Cursor& cur) {
  LoweredProblem::BatchPoint pt;
  entry.eval_batch(k, &x, 1, cur, &pt);
  return pt;
}

/// The entry's memoized tolerance: a one-lane pooled search.
double entry_tolerance(core::SolverCache::Entry& entry, int k, double from,
                       double budget, LoweredProblem::Cursor& cur) {
  double tol = 0.0;
  entry.max_param_for_budget_from_batch(k, &from, &budget, 1, cur, &tol);
  return tol;
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
    const auto ev = entry_point(*entry, 0, x, cur);
    const auto ref = dense.solve(0, x);
    EXPECT_EQ(ev.value, ref.value) << "x=" << x;
    EXPECT_EQ(ev.slope, ref.gradient[0]) << "x=" << x;
    first_values.push_back(ev.value);
  }
  // Each one-lane read is exactly one replay or one anchor solve.
  const auto cold = cache.stats();
  EXPECT_GT(cold.anchor_solves, 0u);
  EXPECT_EQ(cold.anchor_solves + cold.replays, xs.size());
  EXPECT_LE(cold.anchor_bytes, core::SolverCache::Entry::kMemoBudgetBytes);

  // Warm second pass: same bytes, now served by anchor replay.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(entry_point(*entry, 0, xs[i], cur).value, first_values[i]);
  }
  const auto warm = cache.stats();
  EXPECT_EQ(warm.replays - cold.replays, xs.size());
  EXPECT_EQ(warm.anchor_solves, cold.anchor_solves);
  EXPECT_EQ(warm.built, cold.built);
}

/// eval_batch on `entry` at xs, against the problem's own solve_batch:
/// value and slope bitwise at every lane.
void expect_eval_batch_matches(core::SolverCache::Entry& entry,
                               const std::vector<double>& xs,
                               LoweredProblem::Cursor& cur) {
  std::vector<LoweredProblem::BatchPoint> got(xs.size());
  std::vector<LoweredProblem::BatchPoint> ref(xs.size());
  entry.eval_batch(0, xs.data(), xs.size(), cur, got.data());
  LoweredProblem::Cursor rc;
  entry.problem()->solve_batch(0, xs.data(), xs.size(), rc, ref.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
              std::bit_cast<std::uint64_t>(ref[i].value))
        << "lane " << i << " x=" << xs[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].slope),
              std::bit_cast<std::uint64_t>(ref[i].slope))
        << "lane " << i << " x=" << xs[i];
  }
}

TEST(SolverCacheEntry, EvalBatchMatchesSolveBatchBitwise) {
  // Every registered app; lanes ascending, descending and shuffled; n = 1,
  // 16 and 37.  Each call mixes lanes earlier calls' anchors cover (and
  // repeats) with new ones that walk and publish.
  const auto p = loggops::NetworkConfig::cscs_testbed();
  for (const std::string& app : apps::app_names()) {
    SCOPED_TRACE(app);
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    core::SolverCache cache;
    const auto entry =
        cache.latency(core::GraphKey{app, ranks, 0.02, p.S}, g, p);
    LoweredProblem::Cursor cur;
    Rng rng(31);
    std::vector<double> seen;  // earlier lanes, some of them replayed
    for (const int order : {0, 1, 2}) {
      for (const std::size_t n : {1u, 16u, 37u}) {
        SCOPED_TRACE("order=" + std::to_string(order) +
                     " n=" + std::to_string(n));
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i) {
          xs.push_back(i % 4 == 3 && !seen.empty()
                           ? seen[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(seen.size()) -
                                        1))]
                           : p.L + rng.uniform(0.0, 40'000.0));
        }
        if (order == 0) std::sort(xs.begin(), xs.end());
        if (order == 1) std::sort(xs.rbegin(), xs.rend());
        expect_eval_batch_matches(*entry, xs, cur);
        seen.insert(seen.end(), xs.begin(), xs.end());
      }
    }
    const auto s = cache.stats();
    EXPECT_GT(s.anchor_solves, 0u);
    EXPECT_EQ(s.anchor_solves + s.replays, seen.size()) << "nothing batched";
    EXPECT_EQ(s.budget_refused, 0u);
  }

  // Past the byte budget: fill lulesh-8's budget through the tolerance
  // memo, then a call whose lanes no anchor covers publishes nothing and
  // runs its remainder as one solve_batch, still bitwise.
  const auto g = schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"lulesh", 8, 0.02, p.S}, g, p);
  LoweredProblem::Cursor cur;
  // A solve whose value is not finite (L = 1e308 overflows T) is never
  // published: it and the lanes above it run in the batched remainder, and
  // the next call at that point solves again.
  expect_eval_batch_matches(
      *entry,
      {p.L, 1e308, std::numeric_limits<double>::quiet_NaN(),
       std::numeric_limits<double>::infinity(), p.L + 5.0},
      cur);
  const auto overflow = cache.stats();
  expect_eval_batch_matches(*entry, {1e308}, cur);
  EXPECT_EQ(cache.stats().anchor_solves, overflow.anchor_solves + 1);
  const std::size_t finite_anchors = entry->anchor_count();

  const double base = entry->problem()->solve(0, p.L).value;
  constexpr std::size_t kLanes = 4096;
  std::vector<double> from(kLanes, p.L);
  std::vector<double> budgets(kLanes);
  std::vector<double> tols(kLanes);
  double next = base;
  while (cache.stats().budget_refused == 0) {
    for (double& b : budgets) b = (next += 1.0);
    entry->max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                           kLanes, cur, tols.data());
  }
  const auto full = cache.stats();
  std::vector<double> xs;  // below every published anchor: none covers
  for (int i = 0; i < 37; ++i) xs.push_back(p.L * i / 40.0);
  expect_eval_batch_matches(*entry, xs, cur);
  const auto after = cache.stats();
  EXPECT_EQ(entry->anchor_count(), finite_anchors);
  EXPECT_EQ(after.anchor_bytes, full.anchor_bytes);
  EXPECT_EQ(after.budget_refused, full.budget_refused + 1);
  EXPECT_EQ(after.anchor_solves - full.anchor_solves, 1u)
      << "one refused publish, then the batched remainder";
  EXPECT_EQ(after.replays, full.replays);
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
  // G is folded into the flat lowering's edge constants, so it is part of
  // the fingerprint too.
  loggops::Params p3 = p;
  p3.G *= 2.0;
  const auto d = cache.latency(key, g, p3);
  EXPECT_NE(a.get(), d.get());
  EXPECT_TRUE(d->problem()->flat());
  // λ_G reads the latency entry under (key, p): one more hit, no lowering.
  const core::LatencyAnalyzer an(g, p, cache, key);
  const LoweredProblem dense(g, std::make_shared<LatencyBandwidthParamSpace>(p));
  EXPECT_EQ(an.lambda_G(), dense.solve(1, p.G).gradient[1]);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.built, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_NE(cache.stats_string().find("solvers: built=3"), std::string::npos);
  EXPECT_EQ(core::SolverCache().stats_string(),
            "solvers: built=0 hits=0 anchor_solves=0 replays=0 "
            "anchor_bytes=0 memo_hits=0 memo_misses=0 memo_bytes=0 "
            "budget_refused=0");
}

/// 8 threads hammer one entry with overlapping repeated/nearby queries of
/// parameter k over [0, hi), racing anchor publication; every result must
/// equal the dense value.
void hammer_entry_matches_dense(core::SolverCache::Entry& entry, int k,
                                double hi) {
  const LoweredProblem& dense = *entry.problem();
  std::vector<double> xs;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) xs.push_back(rng.uniform(0.0, hi));
  std::vector<double> refs;
  for (const double x : xs) refs.push_back(dense.solve(k, x).value);

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
            entry_point(entry, k, xs[j], cur).value);
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

TEST(SolverCacheEntry, ConcurrentEvalsAreBitwiseDense) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const core::GraphKey key{"running-example", 1, 1.0, p.S};
  {
    SCOPED_TRACE("running example");
    hammer_entry_matches_dense(*cache.latency(key, g, p), 0, 4'000.0);
  }
  // An application graph: longer chains, many more basis pieces.
  const auto lulesh =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto pl = loggops::NetworkConfig::cscs_testbed();
  SCOPED_TRACE("lulesh-8");
  hammer_entry_matches_dense(
      *cache.latency(core::GraphKey{"lulesh", 8, 0.02, pl.S}, lulesh, pl), 0,
      pl.L + 40'000.0);
  EXPECT_GT(cache.stats().replays, 0u);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(const std::vector<double>& vs) {
  std::vector<std::uint64_t> out;
  for (const double v : vs) out.push_back(bits(v));
  return out;
}

TEST(SolverCacheEntry, MemoizedCallsAreBitwiseDirectOnAllRegisteredApps) {
  // Algorithm 2 and the tolerance search served through an entry must
  // equal direct LoweredProblem calls bit for bit: on the computing (cold)
  // call and on the memo hit (warm) that repeats it.  λ_G, summed along the
  // latency entry's base-L critical path, must equal the gradient a dense
  // solve of the two-parameter LatencyBandwidthParamSpace reads at G, on
  // every app, preset and scale here.
  for (const std::string& app : apps::app_names()) {
    for (const double scale : {0.02, 0.05}) {
      for (const bool daint : {false, true}) {
        SCOPED_TRACE(app + (daint ? " piz_daint " : " cscs ") +
                     std::to_string(scale));
        const int ranks = apps::supported_ranks(app, 8);
        const auto g =
            schedgen::build_graph(apps::make_app_trace(app, ranks, scale));
        const auto p = daint ? loggops::NetworkConfig::piz_daint()
                             : loggops::NetworkConfig::cscs_testbed();
        core::SolverCache cache;
        const core::GraphKey key{app, ranks, scale, p.S};
        const auto entry = cache.latency(key, g, p);
        const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
        const LoweredProblem direct_bw(
            g, std::make_shared<LatencyBandwidthParamSpace>(p));
        LoweredProblem::Cursor cur;
        LoweredProblem::Cursor dcur;

        const double base = direct.solve(0, p.L).value;
        const double hi = p.L + 20'000.0;
        const double step = 20'000.0 / 64.0;
        const auto ref_crit =
            bits(direct.critical_values_algorithm2(0, p.L, hi, step));
        const auto ref_lambda_G = bits(direct_bw.solve(1, p.G).gradient[1]);
        std::vector<std::uint64_t> ref_tols;
        for (const double pct : {0.0, 1.0, 2.0, 5.0}) {
          ref_tols.push_back(bits(testing::tolerance(
              direct, 0, p.L, base * (1.0 + pct / 100.0), dcur)));
        }

        for (int round = 0; round < 2; ++round) {
          const auto before = cache.stats();
          EXPECT_EQ(bits(entry->critical_values_algorithm2(0, p.L, hi, step)),
                    ref_crit);
          // The analyzer's base eval publishes (round 0) or replays the
          // base-L anchor; λ_G then reads that anchor's critical path.
          const core::LatencyAnalyzer an(g, p, cache, key);
          EXPECT_EQ(bits(an.lambda_G()), ref_lambda_G) << "round=" << round;
          std::size_t i = 0;
          for (const double pct : {0.0, 1.0, 2.0, 5.0}) {
            EXPECT_EQ(bits(entry_tolerance(*entry, 0, p.L,
                                           base * (1.0 + pct / 100.0), cur)),
                      ref_tols[i++])
                << "round=" << round << " pct=" << pct;
          }
          // Algorithm 2 and the four bands are memoized; the base-L anchor
          // is a dense solve once, and every later read of it a replay.
          const auto after = cache.stats();
          EXPECT_EQ(after.built, 1u);
          if (round == 0) {
            EXPECT_EQ(after.memo_misses - before.memo_misses, 5u);
            EXPECT_EQ(after.memo_hits, before.memo_hits);
            EXPECT_EQ(after.anchor_solves - before.anchor_solves, 1u);
            EXPECT_EQ(after.replays - before.replays, 1u);
          } else {
            EXPECT_EQ(after.memo_misses, before.memo_misses);
            EXPECT_EQ(after.memo_hits - before.memo_hits, 5u);
            EXPECT_EQ(after.memo_bytes, before.memo_bytes);
            EXPECT_EQ(after.anchor_solves, before.anchor_solves);
            EXPECT_EQ(after.replays - before.replays, 2u);
          }
        }
      }
    }
  }
}

TEST(SolverCacheEntry, MemoCapKeepsFirstEntriesAndPastCapCallsStayBitwise) {
  // Both memos of an entry share one byte budget, counted as memo_bytes
  // counts them: a 40-byte key plus the payload.  Results are stored first
  // come while they fit; later ones are computed and returned, not stored.
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, p.S}, g, p);
  const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor cur;
  LoweredProblem::Cursor dcur;
  constexpr std::size_t kKeyBytes = 5 * sizeof(std::uint64_t);
  constexpr std::size_t kTolBytes = kKeyBytes + sizeof(double);

  // An Algorithm-2 result first: it draws on the same budget.
  const auto crit = entry->critical_values_algorithm2(0, 0.0, 1'000.0, 0.0);
  const std::size_t crit_bytes = cache.stats().memo_bytes;
  EXPECT_EQ(crit_bytes, kKeyBytes + sizeof(crit) + crit.size() * sizeof(double));
  const std::size_t fit =
      (core::SolverCache::Entry::kMemoBudgetBytes - crit_bytes) / kTolBytes;

  // T(500) = 1615: budgets above it all succeed, one per distinct key.
  // The first few go through one-lane calls, the rest through 48-lane
  // calls, past the budget by 64 keys.
  const auto budget = [](std::size_t i) {
    return 1'615.0 + 0.25 * static_cast<double>(i);
  };
  const std::size_t total = fit + 64;
  constexpr std::size_t kScalar = 16;
  for (std::size_t i = 0; i < kScalar; ++i) {
    EXPECT_EQ(bits(entry_tolerance(*entry, 0, 500.0, budget(i), cur)),
              bits(testing::tolerance(direct, 0, 500.0, budget(i), dcur)))
        << "i=" << i;
  }
  constexpr std::size_t kLanes = 48;
  const std::vector<double> from(kLanes, 500.0);
  std::vector<double> budgets(kLanes);
  std::vector<double> out(kLanes);
  std::vector<double> ref(kLanes);
  const auto pooled = [&](std::size_t first, std::size_t n) {
    for (std::size_t l = 0; l < n; ++l) budgets[l] = budget(first + l);
    entry->max_param_for_budget_from_batch(0, from.data(), budgets.data(), n,
                                           cur, out.data());
    direct.max_param_for_budget_from_batch(0, from.data(), budgets.data(), n,
                                           dcur, ref.data());
    for (std::size_t l = 0; l < n; ++l) {
      ASSERT_EQ(bits(out[l]), bits(ref[l])) << "key " << first + l;
    }
  };
  for (std::size_t i = kScalar; i < total; i += kLanes) {
    pooled(i, std::min(kLanes, total - i));
  }
  const auto full = cache.stats();
  EXPECT_EQ(full.memo_misses, 1 + total);
  EXPECT_EQ(full.memo_bytes, crit_bytes + fit * kTolBytes);
  EXPECT_LE(full.memo_bytes, core::SolverCache::Entry::kMemoBudgetBytes);
  EXPECT_EQ(full.budget_refused, 64u) << "one refusal per key past the budget";

  // The first `fit` keys are stored: repeats hit, at any lane count.  Keys
  // past the budget were computed but dropped: repeats compute again,
  // still bitwise direct, and the stored bytes do not grow.
  (void)entry_tolerance(*entry, 0, 500.0, budget(0), cur);
  (void)entry_tolerance(*entry, 0, 500.0, budget(fit - 1), cur);
  (void)entry->critical_values_algorithm2(0, 0.0, 1'000.0, 0.0);
  EXPECT_EQ(cache.stats().memo_hits, 3u);
  const double past = entry_tolerance(*entry, 0, 500.0, budget(fit), cur);
  EXPECT_EQ(bits(past),
            bits(testing::tolerance(direct, 0, 500.0, budget(fit), dcur)));
  pooled(fit - 24, kLanes);  // 24 stored keys, 24 past the budget
  const auto after = cache.stats();
  EXPECT_EQ(after.memo_hits, 3u + 24u);
  EXPECT_EQ(after.memo_misses, full.memo_misses + 1 + 24);
  EXPECT_EQ(after.memo_bytes, full.memo_bytes);
  EXPECT_EQ(after.budget_refused, full.budget_refused + 1 + 24);

  // Bit-pattern keys: -0.0 is a different key from 0.0 (a miss, not a
  // hit), even though the two compare equal.
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
    EXPECT_THROW((void)entry_tolerance(*entry, 0, 500.0, 1'000.0, cur),
                 LpError);
    EXPECT_THROW((void)entry->critical_values_algorithm2(0, 10.0, 1.0, 0.0),
                 LpError);
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.memo_misses, 6u) << "each throwing call recomputes";
  EXPECT_EQ(s.memo_hits, 0u);
  EXPECT_EQ(s.memo_bytes, 0u);
  // The entry still serves the same key's neighbours normally.
  EXPECT_EQ(entry_tolerance(*entry, 0, 500.0, 1'615.0, cur), 500.0);
}

TEST(SolverCacheEntry, LookupWithoutLoweringThenLatencyBuildsOnce) {
  // entry() hands out the (key, p) entry without lowering it, and its row
  // memo works on that handle; a later latency() lowers the same entry
  // once, and the row stored before the lowering stays a hit.
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const core::GraphKey key{"running-example", 1, 1.0, p.S};
  const auto looked_up = cache.entry(key, p);
  EXPECT_EQ(looked_up->problem(), nullptr);
  EXPECT_EQ(cache.entry(key, p).get(), looked_up.get());
  int computed = 0;
  const auto rows = [&] {
    ++computed;
    return std::vector<double>{1.5, 2.5};
  };
  using Op = core::SolverCache::Entry::RowOp;
  EXPECT_EQ(looked_up->rows(Op::kTopo, {274.0, 108.0}, rows),
            (std::vector<double>{1.5, 2.5}));
  auto s = cache.stats();
  EXPECT_EQ(s.built, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.memo_misses, 1u);

  const auto a = cache.latency(key, g, p);
  EXPECT_EQ(a.get(), looked_up.get());
  ASSERT_NE(a->problem(), nullptr);
  const auto b = cache.latency(key, g, p);
  EXPECT_EQ(b->problem().get(), a->problem().get());
  s = cache.stats();
  EXPECT_EQ(s.built, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(a->rows(Op::kTopo, {274.0, 108.0}, rows),
            (std::vector<double>{1.5, 2.5}));
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.stats().memo_hits, 1u);
}

TEST(SolverCacheEntry, RowMemoKeysOnOpAndInputBitsUnderTheSharedBudget) {
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.entry(core::GraphKey{"running-example", 1, 1.0, p.S}, p);
  using Op = core::SolverCache::Entry::RowOp;
  int computed = 0;
  const auto row = [&](double v) {
    return [&computed, v] {
      ++computed;
      return std::vector<double>{v};
    };
  };
  EXPECT_EQ(entry->rows(Op::kTopo, {0.0, 8.0}, row(1.0)).front(), 1.0);
  EXPECT_EQ(entry->rows(Op::kTopo, {0.0, 8.0}, row(9.0)).front(), 1.0);
  // The op and the bits of every input are the key: -0.0 is not 0.0.
  EXPECT_EQ(entry->rows(Op::kPlace, {0.0, 8.0}, row(2.0)).front(), 2.0);
  EXPECT_EQ(entry->rows(Op::kTopo, {-0.0, 8.0}, row(3.0)).front(), 3.0);
  EXPECT_EQ(entry->rows(Op::kTopo, {0.0, 8.0, 1.0}, row(4.0)).front(), 4.0);
  EXPECT_EQ(computed, 4);
  const std::size_t one_row = sizeof(std::array<std::uint64_t, 7>) +
                              sizeof(std::vector<double>) + sizeof(double);
  EXPECT_EQ(cache.stats().memo_bytes, 4 * one_row);

  // A throw stores nothing and recomputes; the key then stores normally.
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW((void)entry->rows(Op::kPlace, {1.0},
                                   []() -> std::vector<double> {
                                     throw LpError("row");
                                   }),
                 LpError);
  }
  EXPECT_EQ(cache.stats().memo_bytes, 4 * one_row);
  EXPECT_EQ(entry->rows(Op::kPlace, {1.0}, row(5.0)).front(), 5.0);
  EXPECT_EQ(entry->rows(Op::kPlace, {1.0}, row(6.0)).front(), 5.0);

  // Past kMemoBudgetBytes results are computed and returned, not stored.
  const std::size_t big = core::SolverCache::Entry::kMemoBudgetBytes / 4;
  const auto big_row = [&](double v) {
    return [&computed, big, v] {
      ++computed;
      return std::vector<double>(big / sizeof(double), v);
    };
  };
  for (int i = 0; i < 4; ++i) {
    const double in = 100.0 + i;
    EXPECT_EQ(entry->rows(Op::kTopo, {in}, big_row(in)).back(), in);
  }
  computed = 0;
  EXPECT_EQ(entry->rows(Op::kTopo, {100.0}, big_row(-1.0)).back(), 100.0);
  EXPECT_EQ(entry->rows(Op::kTopo, {102.0}, big_row(-1.0)).back(), 102.0);
  EXPECT_EQ(entry->rows(Op::kTopo, {103.0}, big_row(-1.0)).back(), -1.0);
  EXPECT_EQ(computed, 1) << "only the row past the budget recomputes";
  EXPECT_LE(cache.stats().memo_bytes,
            core::SolverCache::Entry::kMemoBudgetBytes);
}

TEST(SolverCacheEntry, ConcurrentMemoizedCallsAreBitwiseDirect) {
  // 8 threads race first touches and hits of both memos on one entry, and
  // of λ_G reads on kKeys entries (one per G): each read lowers or hits
  // its entry, publishes or replays the base-L anchor, and sums its
  // critical path.  Every answer must equal the direct call.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  core::SolverCache cache;
  const core::GraphKey key{"lulesh", 8, 0.02, p.S};
  const auto entry = cache.latency(key, g, p);
  const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
  const double base = direct.solve(0, p.L).value;

  constexpr int kKeys = 12;
  std::vector<std::uint64_t> ref_tol;
  std::vector<std::vector<std::uint64_t>> ref_crit;
  std::vector<loggops::Params> p_G;
  std::vector<std::uint64_t> ref_bw;
  LoweredProblem::Cursor dcur;
  for (int i = 0; i < kKeys; ++i) {
    ref_tol.push_back(bits(testing::tolerance(
        direct, 0, p.L, base * (1.0 + 0.5 * i / 100.0), dcur)));
    ref_crit.push_back(bits(direct.critical_values_algorithm2(
        0, p.L, p.L + 1'000.0 * (i + 1), 250.0)));
    p_G.push_back(p);
    p_G.back().G = p.G * (1.0 + i);
    const LoweredProblem direct_bw(
        g, std::make_shared<LatencyBandwidthParamSpace>(p_G.back()));
    ref_bw.push_back(bits(direct_bw.solve(1, p_G.back().G).gradient[1]));
  }

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LoweredProblem::Cursor cur;
      for (int r = 0; r < 3 * kKeys; ++r) {
        const int i = (r + 5 * t) % kKeys;
        if (bits(entry_tolerance(*entry, 0, p.L,
                                 base * (1.0 + 0.5 * i / 100.0), cur)) !=
            ref_tol[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (bits(entry->critical_values_algorithm2(
                0, p.L, p.L + 1'000.0 * (i + 1), 250.0)) != ref_crit[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        const core::LatencyAnalyzer an(g, p_G[static_cast<std::size_t>(i)],
                                       cache, key);
        if (bits(an.lambda_G()) != ref_bw[i]) {
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
            static_cast<std::size_t>(kThreads * 3 * kKeys * 2));
  EXPECT_GE(s.memo_misses, static_cast<std::size_t>(2 * kKeys));
  // Each analyzer evaluates its base L, then λ_G reads the same anchor.
  EXPECT_EQ(s.anchor_solves + s.replays,
            static_cast<std::size_t>(kThreads * 3 * kKeys * 2));
  EXPECT_GE(s.anchor_solves, static_cast<std::size_t>(kKeys));
  EXPECT_EQ(s.built, static_cast<std::size_t>(kKeys));  // G = p.G is entry's
}

// ---------------------------------------------------------------------------
// Budget-search boundary contract, through one-lane pooled calls: exact
// knot ties, budgets inside the eps band, and budgets already violated at
// the anchor all have pinned, cursor-state-independent answers.
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
  const double knot = testing::tolerance(solver, 0, 0.0, 1'500.0, ws);
  EXPECT_NEAR(knot, 385.0, 1e-5);
  EXPECT_LE(solver.solve(0, knot).value, 1'500.0 + 1e-9 * (1.0 + 1'500.0));

  // Budget exactly T(from): the answer is `from` itself, never below it.
  EXPECT_EQ(testing::tolerance(solver, 0, 500.0, 1'615.0, ws), 500.0);

  // Budget inside the eps band below T(from): still clamped to `from`
  // (the pre-fix code could walk backwards past the anchor here).
  const double teps = 1e-9 * (1.0 + 1'615.0);
  const double r =
      testing::tolerance(solver, 0, 500.0, 1'615.0 - 0.5 * teps, ws);
  EXPECT_EQ(r, 500.0);

  // Budget already violated beyond the eps band: a defined error, both
  // from an explicit anchor and from the space's base point (T(500) = 1615
  // exceeds both budgets).
  EXPECT_THROW((void)testing::tolerance(solver, 0, 500.0, 1'550.0, ws),
               LpError);
  EXPECT_THROW((void)testing::tolerance(solver, 0, 1'000.0), LpError);

  // Cursor-state independence: a cursor that just served unrelated solves
  // and a fresh one agree bitwise at every boundary shape, knot tie
  // included.
  solver.solve(0, 4'999.0, ws);
  LoweredProblem::Cursor fresh;
  EXPECT_EQ(testing::tolerance(solver, 0, 0.0, 1'500.0, ws),
            testing::tolerance(solver, 0, 0.0, 1'500.0, fresh));
  for (const double budget : {1'615.0, 1'616.0, 2'000.0, 1e9}) {
    EXPECT_EQ(testing::tolerance(solver, 0, p.L, budget, ws),
              testing::tolerance(solver, 0, p.L, budget, fresh))
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
    const double a = testing::tolerance(solver, 0, p.L, budget, warm);
    LoweredProblem::Cursor fresh;
    const double b = testing::tolerance(solver, 0, p.L, budget, fresh);
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
                                LoweredProblem::Cursor& bc) {
  std::vector<LoweredProblem::BatchPoint> plain(xs.size());
  std::vector<LoweredProblem::BatchPoint> ranged(xs.size());
  std::vector<LoweredProblem::BatchPoint> points(xs.size());
  solver.solve_batch(k, xs.data(), xs.size(), bc, plain.data());
  solver.solve_batch_ranges(k, xs.data(), xs.size(), bc, ranged.data());
  solver.solve_batch_points(k, xs.data(), xs.size(), bc, points.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto dense = solver.solve(k, xs[i]);
    const double dslope = dense.gradient[static_cast<std::size_t>(k)];
    EXPECT_EQ(plain[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(plain[i].slope, dslope) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].slope, dslope) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].lo, dense.lo) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].hi, dense.hi) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(points[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(points[i].slope, dslope) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(points[i].lo, dense.lo) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(points[i].hi, dense.hi) << "k=" << k << " x=" << xs[i];
  }
}

TEST(BatchSolve, BitwiseMatchesDenseOnAllRegisteredApps) {
  LoweredProblem::Cursor bc;  // shared across apps: reuse must not leak state
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

// ---------------------------------------------------------------------------
// An independent reference for the kernel.  solve() is the kernel's 1-lane
// instance, so BatchSolve.* only compares the kernel with itself at other
// widths; this walk shares no code with it.  It is the seed's graph-driven
// pass, kept here as the only copy of it: per-edge Affine costs, an
// in-edge list per vertex id in ascending edge id, vertices in the graph's
// topological order, the first candidate taken unconditionally and later
// ones by the value_eps tie rule — plus the same rule over the sinks in
// vertex-id order and an argmax chain for the gradient.
// ---------------------------------------------------------------------------

struct SeedResult {
  double value = 0.0;
  double slope = 0.0;  ///< forward slope at the critical sink
  std::vector<double> gradient;
  std::size_t messages = 0;
};

SeedResult seed_walk(const graph::Graph& g, const ParamSpace& space,
                     int active, double x) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const auto eps = [](double v) { return 1e-9 * (1.0 + std::fabs(v)); };
  std::vector<double> point;
  for (int k = 0; k < space.num_params(); ++k) {
    point.push_back(space.base_value(k));
  }
  point[static_cast<std::size_t>(active)] = x;
  const std::size_t n = g.num_vertices();
  std::vector<Affine> cost;
  std::vector<std::vector<std::uint32_t>> in(n);
  for (std::uint32_t e = 0; e < g.num_edges(); ++e) {
    cost.push_back(space.edge_cost(g, g.edge(e)));
    in[g.edge(e).to].push_back(e);
  }
  std::vector<double> finish(n, 0.0);
  std::vector<double> slope(n, 0.0);
  std::vector<std::uint32_t> arg(n, kNone);
  // Whether candidate (cv, cs) replaces the best so far, (bv, bs).
  const auto better = [&](bool first, double cv, double cs, double bv,
                          double bs) {
    return first || cv > bv + eps(bv) || (cv > bv - eps(bv) && cs > bs);
  };
  for (const graph::VertexId v : g.topo_order()) {
    double bv = 0.0;
    double bs = 0.0;
    for (const std::uint32_t e : in[v]) {
      double c = cost[e].constant;
      double s = 0.0;
      for (const ParamTerm& t : cost[e].terms) {
        c += t.coeff * point[static_cast<std::size_t>(t.param)];
        if (t.param == active) s += t.coeff;
      }
      const graph::VertexId u = g.edge(e).from;
      const double cv = finish[u] + c;
      const double cs = slope[u] + s;
      if (better(arg[v] == kNone, cv, cs, bv, bs)) {
        bv = cv;
        bs = cs;
        arg[v] = e;
      }
    }
    finish[v] = bv + graph::vertex_cost(g.vertex(v), space.params());
    slope[v] = bs;
  }
  SeedResult out;
  graph::VertexId sink = graph::kInvalidVertex;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!g.out_edges(v).empty()) continue;
    if (better(sink == graph::kInvalidVertex, finish[v], slope[v], out.value,
               out.slope)) {
      out.value = finish[v];
      out.slope = slope[v];
      sink = v;
    }
  }
  out.gradient.assign(point.size(), 0.0);
  for (graph::VertexId v = sink; arg[v] != kNone; v = g.edge(arg[v]).from) {
    for (const ParamTerm& t : cost[arg[v]].terms) {
      out.gradient[static_cast<std::size_t>(t.param)] += t.coeff;
    }
    if (g.edge(arg[v]).kind == graph::EdgeKind::kComm) ++out.messages;
  }
  return out;
}

/// Pins solve() and solve_batch_ranges() against the seed walk over
/// [lo, hi]: a few random points, every breakpoint, and a point just below
/// each one, inside the value_eps band where the slope breaks the tie.
void expect_matches_seed_walk(const graph::Graph& g,
                              std::shared_ptr<const ParamSpace> space, int k,
                              double lo, double hi,
                              LoweredProblem::Cursor& cur) {
  const LoweredProblem solver(g, space);
  std::vector<double> xs =
      stress_grid(solver, k, lo, hi, 3, 0x5eedu + g.num_edges());
  for (const double c : solver.critical_values(k, lo, hi)) {
    xs.push_back(c - 1e-5);
  }
  std::vector<LoweredProblem::BatchPoint> ranged(xs.size());
  solver.solve_batch_ranges(k, xs.data(), xs.size(), cur, ranged.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "k=" << k << " x=" << xs[i]);
    const SeedResult ref = seed_walk(g, *space, k, xs[i]);
    const auto& dense = solver.solve(k, xs[i], cur);
    EXPECT_EQ(dense.value, ref.value);
    EXPECT_EQ(dense.gradient, ref.gradient);
    EXPECT_EQ(dense.messages, ref.messages);
    EXPECT_EQ(ranged[i].value, ref.value);
    EXPECT_EQ(ranged[i].slope, ref.slope);
  }
}

TEST(SeedWalk, DenseAndRangedPassesMatchOnAllRegisteredApps) {
  LoweredProblem::Cursor cur;  // shared by every app and space
  for (const std::string& app : apps::app_names()) {
    SCOPED_TRACE(app);
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const double l_hi = p.L + 60'000.0;
    const auto lat = std::make_shared<LatencyParamSpace>(p);
    ASSERT_TRUE(LoweredProblem(g, lat).flat());
    expect_matches_seed_walk(g, lat, 0, 0.0, l_hi, cur);
    const auto bw = std::make_shared<LatencyBandwidthParamSpace>(p);
    ASSERT_FALSE(LoweredProblem(g, bw).flat());
    expect_matches_seed_walk(g, bw, 0, 0.0, l_hi, cur);
    expect_matches_seed_walk(g, bw, 1, 0.0, 4.0 * p.G + 1.0, cur);
    const auto pair = std::make_shared<PairwiseLatencyParamSpace>(p, ranks);
    expect_matches_seed_walk(g, pair, pair->pair_index(0, ranks - 1), 0.0,
                             l_hi, cur);
    // Topology spaces: the fat-tree wire space (one parameter, flat), the
    // Dragonfly class space with every rank on one switch (one term per
    // edge) and with two hosts per switch (routes carry two and three
    // classes).
    const auto placement = topo::identity_placement(ranks);
    const auto wire = std::make_shared<LinkClassParamSpace>(
        topo::make_wire_latency_space(p, topo::FatTree(4), placement, 274.0,
                                      108.0));
    ASSERT_TRUE(LoweredProblem(g, wire).flat());
    expect_matches_seed_walk(g, wire, 0, 0.0, 10'000.0, cur);
    for (const auto& df : {topo::Dragonfly(8, 4, 8), topo::Dragonfly(4, 2, 2)}) {
      SCOPED_TRACE(df.name());
      const auto cls = std::make_shared<LinkClassParamSpace>(
          topo::make_dragonfly_class_space(p, df, placement, 100.0, 200.0,
                                           300.0, 108.0));
      ASSERT_FALSE(LoweredProblem(g, cls).flat());
      for (int k = 0; k < cls->num_params(); ++k) {
        expect_matches_seed_walk(g, cls, k, 0.0, 10'000.0, cur);
      }
    }
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
  LoweredProblem::Cursor bc;
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
  LoweredProblem::Cursor bc;

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
  LoweredProblem::Cursor bc;
  solver.max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                         from.size(), bc, batch.data());
  for (std::size_t i = 0; i < from.size(); ++i) {
    LoweredProblem::Cursor ws;
    EXPECT_EQ(batch[i],
              testing::tolerance(solver, 0, from[i], budget[i], ws))
        << "lane=" << i << " from=" << from[i] << " budget=" << budget[i];
  }
}

TEST(BatchSolve, ErrorsAndEdgeShapesMatchScalarContracts) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor bc;
  std::vector<double> xs = {0.0, 500.0};
  std::vector<LoweredProblem::BatchPoint> out(xs.size());
  // Out-of-range active parameter: same LpError as solve().
  EXPECT_THROW(solver.solve_batch(7, xs.data(), xs.size(), bc, out.data()),
               LpError);
  // n = 0 is a no-op.
  solver.solve_batch(0, xs.data(), 0, bc, out.data());
  // An infeasible lane throws the one-lane infeasibility error even when
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
// Budget searches that open from the caller's pass at `from` (at_from, on
// one lane and on many) and the pooled lockstep over many lanes: every
// result must be the plain one-lane search's, bit for bit.
// ---------------------------------------------------------------------------

/// `n` search lanes around the base point: anchors on and off it, budgets
/// cycling through the 0% band, tight and loose bands, and every 11th lane
/// an unbounded budget (a +inf tolerance).
struct BudgetLanes {
  std::vector<double> from;
  std::vector<double> budget;
};
BudgetLanes budget_lanes(const LoweredProblem& solver, double base,
                         std::size_t n) {
  constexpr double kPercents[] = {0.0, 1.0, 2.0, 5.0, 50.0, 0.3, 12.5};
  BudgetLanes lanes;
  for (std::size_t i = 0; i < n; ++i) {
    const double from = base + 173.0 * static_cast<double>(i % 5);
    const double pct = kPercents[i % std::size(kPercents)];
    lanes.from.push_back(from);
    lanes.budget.push_back(
        i % 11 == 10 ? std::numeric_limits<double>::infinity()
                     : solver.solve(0, from).value * (1.0 + pct / 100.0));
  }
  return lanes;
}

/// One plain one-lane search per lane: the reference every other form must
/// reproduce bitwise.
std::vector<std::uint64_t> one_lane_searches(const LoweredProblem& solver,
                                           const BudgetLanes& lanes) {
  std::vector<std::uint64_t> out;
  LoweredProblem::Cursor ws;
  for (std::size_t i = 0; i < lanes.from.size(); ++i) {
    out.push_back(bits(
        testing::tolerance(solver, 0, lanes.from[i], lanes.budget[i], ws)));
  }
  return out;
}

TEST(BudgetSearch, AtFromFormsMatchPlainFormsOnAllRegisteredApps) {
  LoweredProblem::Cursor ws;
  LoweredProblem::Cursor bc;
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
    SCOPED_TRACE(app);
    const BudgetLanes lanes = budget_lanes(solver, p.L, 9);
    const auto ref = one_lane_searches(solver, lanes);
    const std::size_t n = lanes.from.size();

    std::vector<std::uint64_t> scalar_at;
    for (std::size_t i = 0; i < n; ++i) {
      const LoweredProblem::BatchPoint at =
          solver.solve(0, lanes.from[i], ws).point();
      scalar_at.push_back(bits(testing::tolerance(
          solver, 0, lanes.from[i], lanes.budget[i], ws, &at)));
    }
    EXPECT_EQ(scalar_at, ref);

    std::vector<double> plain(n);
    std::vector<double> with_at(n);
    std::vector<LoweredProblem::BatchPoint> at(n);
    solver.max_param_for_budget_from_batch(0, lanes.from.data(),
                                           lanes.budget.data(), n, bc,
                                           plain.data());
    solver.solve_batch_ranges(0, lanes.from.data(), n, bc, at.data());
    solver.max_param_for_budget_from_batch(0, lanes.from.data(),
                                           lanes.budget.data(), n, bc,
                                           with_at.data(), at.data());
    EXPECT_EQ(bits(plain), ref);
    EXPECT_EQ(bits(with_at), ref);
  }
}

TEST(BudgetSearch, PooledCallsMatchPerLaneScalarSearches) {
  // 37 lanes = two full blocks plus a 5-lane tail, 48 = three full blocks
  // (one mc lane group's three bands); lanes finish in different rounds,
  // so later rounds gather ragged live sets.
  const auto g = schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor bc;
  for (const std::size_t n : {std::size_t{37}, std::size_t{48}}) {
    SCOPED_TRACE(n);
    const BudgetLanes lanes = budget_lanes(solver, p.L, n);
    const auto ref = one_lane_searches(solver, lanes);
    std::vector<double> pooled(n);
    solver.max_param_for_budget_from_batch(0, lanes.from.data(),
                                           lanes.budget.data(), n, bc,
                                           pooled.data());
    EXPECT_EQ(bits(pooled), ref);
    EXPECT_EQ(pooled[0], lanes.from[0]);  // the 0% band
    EXPECT_EQ(pooled[10], std::numeric_limits<double>::infinity());
  }
}

TEST(BudgetSearch, TopoSpacesAreDenseInversesAndLaneIndependent) {
  // `llamp topo`'s path: a one-lane pooled search per wire class, opened
  // from a one-lane point pass at the class's base value.  On the fat-tree
  // wire space (flat) and both Dragonfly class spaces of the SeedWalk wall
  // (CSR, every class k), each 1x/1.01x/1.05x/1.5x T0 budget's tolerance
  // meets its budget under the dense solve and is exceeded 1 ns past it,
  // and a 4-lane call, with and without at_from, returns the one-lane bits.
  constexpr double kFactors[] = {1.0, 1.01, 1.05, 1.5};
  constexpr std::size_t n = std::size(kFactors);
  LoweredProblem::Cursor cur;
  std::size_t finite_csr_classes = 0;  // finite k != 0 tolerances on CSR
  for (const std::string& app : apps::app_names()) {
    SCOPED_TRACE(app);
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const auto placement = topo::identity_placement(ranks);
    std::vector<std::shared_ptr<const ParamSpace>> spaces = {
        std::make_shared<LinkClassParamSpace>(topo::make_wire_latency_space(
            p, topo::FatTree(4), placement, 274.0, 108.0))};
    for (const auto& df : {topo::Dragonfly(8, 4, 8), topo::Dragonfly(4, 2, 2)}) {
      spaces.push_back(std::make_shared<LinkClassParamSpace>(
          topo::make_dragonfly_class_space(p, df, placement, 100.0, 200.0,
                                           300.0, 108.0)));
    }
    for (std::size_t s = 0; s < spaces.size(); ++s) {
      const LoweredProblem solver(g, spaces[s]);
      EXPECT_EQ(solver.flat(), s == 0);
      for (int k = 0; k < solver.num_params(); ++k) {
        SCOPED_TRACE(::testing::Message() << "space=" << s << " k=" << k);
        const double from = spaces[s]->base_value(k);
        LoweredProblem::BatchPoint at;
        solver.solve_batch_points(k, &from, 1, cur, &at);
        std::vector<double> budget;
        std::vector<std::uint64_t> one_lane;
        for (const double f : kFactors) {
          budget.push_back(at.value * f);
          const double b = budget.back();
          const double tol = testing::tolerance(solver, k, from, b, cur, &at);
          EXPECT_EQ(bits(tol),
                    bits(testing::tolerance(solver, k, from, b, cur)))
              << "factor=" << f;
          one_lane.push_back(bits(tol));
          EXPECT_GE(tol, from);
          if (!std::isfinite(tol)) {
            EXPECT_LE(solver.solve(k, from + 1e9).value,
                      b + detail::value_eps(b));
            continue;
          }
          const double t_at = solver.solve(k, tol).value;
          EXPECT_LE(t_at, b + detail::value_eps(b)) << "factor=" << f;
          EXPECT_NEAR(t_at, b, 1e-6 * b) << "factor=" << f;
          EXPECT_GT(solver.solve(k, tol + 1.0).value, b) << "factor=" << f;
          finite_csr_classes += s > 0 && k != 0;
        }
        const std::vector<double> froms(n, from);
        const std::vector<LoweredProblem::BatchPoint> ats(n, at);
        std::vector<double> pooled(n);
        solver.max_param_for_budget_from_batch(k, froms.data(), budget.data(),
                                               n, cur, pooled.data());
        EXPECT_EQ(bits(pooled), one_lane);
        solver.max_param_for_budget_from_batch(k, froms.data(), budget.data(),
                                               n, cur, pooled.data(),
                                               ats.data());
        EXPECT_EQ(bits(pooled), one_lane);
      }
    }
  }
  EXPECT_GT(finite_csr_classes, 0u);
}

/// Uncapped piece-by-piece reference for a budget search: cross every basis
/// piece at its upper end plus eps (the search's step before flat runs
/// accelerate), with no step cap, and answer the tangent crossing inside
/// the first piece that reaches the budget.  `pieces` counts the solves.
double piecewise_tolerance(const LoweredProblem& prob, double from,
                           double budget, LoweredProblem::Cursor& cur,
                           std::size_t& pieces) {
  const double eps = detail::budget_eps(budget);
  double x = from;
  for (pieces = 1;; ++pieces) {
    const LoweredProblem::Solution& s = prob.solve(0, x, cur);
    if (s.value > budget) return x;  // the crossing lies in the last step
    const double slope = s.gradient[0];
    if (slope > 1e-12) {
      const double cross = x + (budget - s.value) / slope;
      if (cross <= s.hi + eps) return std::max(cross, from);
    } else if (!std::isfinite(s.hi)) {
      return std::numeric_limits<double>::infinity();
    }
    x = s.hi + eps;
  }
}

/// T(L) flat over `pieces` + 1 basis pieces: a 1 ms compute is the
/// critical path, and message i's receive switches from its local
/// predecessor (a 1000 + 4·i ns compute) to its comm edge at
/// L = 1000 + 4·i, off the critical path.  Past L = 8 µs a last message
/// path, L + (1 ms − 8 µs), overtakes the compute.  Under o = G = O = 0
/// every crossover sits exactly at its L.
graph::Graph flat_stretch_graph(int pieces) {
  graph::Graph g(3);
  g.add_calc(2, 1e6);
  for (int i = 0; i < pieces; ++i) {
    const auto s = g.add_send(0, 1, 8);
    const auto d = g.add_calc(1, 1000.0 + 4.0 * i);
    const auto r = g.add_recv(1, 0, 8);
    g.add_local_edge(d, r);
    g.add_comm_edge(s, r, /*rendezvous=*/false);
  }
  const auto s = g.add_send(0, 1, 8);
  const auto r = g.add_recv(1, 0, 8);
  const auto tail = g.add_calc(1, 1e6 - 8000.0);
  g.add_comm_edge(s, r, /*rendezvous=*/false);
  g.add_local_edge(r, tail);
  g.finalize();
  return g;
}

TEST(BudgetSearch, FlatStretchOfManyPiecesConvergesInEveryForm) {
  // More flat pieces below the budget than a search has steps (the
  // lammps-216 failure at scale 0.25, whose flat stretch near-ties split
  // into 619 pieces, more than the 512 steps searches then had).  After
  // detail::kFlatRun crossings each jump doubles: one-lane calls with and
  // without at_from and one pooled call converge, agree bitwise, and land
  // within the search's eps of the uncapped piece-by-piece walk.  The
  // lanes opening at 5 µs cross fewer than kFlatRun pieces, so they keep
  // the one-piece-per-step sequence beside the accelerated ones.
  const auto g = flat_stretch_graph(1500);
  loggops::Params p;
  p.L = 500.0;
  p.o = 0.0;
  p.G = 0.0;
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor cur;
  std::vector<double> from;
  std::vector<double> budget;
  for (const double x : {500.0, 5000.0}) {
    for (const double pct : {1.0, 5.0}) {
      from.push_back(x);
      budget.push_back(solver.solve(0, x, cur).value * (1.0 + pct / 100.0));
    }
  }
  const std::size_t n = from.size();
  std::vector<double> scalar;
  std::vector<double> with_at;
  for (std::size_t i = 0; i < n; ++i) {
    scalar.push_back(testing::tolerance(solver, 0, from[i], budget[i], cur));
    const LoweredProblem::BatchPoint at = solver.solve(0, from[i], cur).point();
    with_at.push_back(
        testing::tolerance(solver, 0, from[i], budget[i], cur, &at));
  }
  std::vector<double> pooled(n);
  solver.max_param_for_budget_from_batch(0, from.data(), budget.data(), n, cur,
                                         pooled.data());
  EXPECT_EQ(bits(with_at), bits(scalar));
  EXPECT_EQ(bits(pooled), bits(scalar));

  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    std::size_t pieces = 0;
    const double ref =
        piecewise_tolerance(solver, from[i], budget[i], cur, pieces);
    if (from[i] == 500.0) {
      EXPECT_GT(pieces, static_cast<std::size_t>(detail::kBudgetIters));
    }
    ASSERT_TRUE(std::isfinite(ref));
    EXPECT_NEAR(scalar[i], ref, detail::budget_eps(budget[i]));
  }
}

TEST(BudgetSearch, UnboundedBudgetIsUnboundedToleranceInEveryForm) {
  // lammps-8 sits on a flat piece at its base L (λ_L = 0) that ends at a
  // finite bound, so a Newton step toward a +inf budget would step past it
  // by the budget's bracket width, +inf, and probe T(+inf) = NaN.  Every
  // form answers +inf once the budget check passes, and the finite lane
  // beside them keeps its one-lane bits.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lammps", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LoweredProblem::Cursor ws;
  EXPECT_EQ(testing::tolerance(solver, 0, p.L, kInf, ws), kInf);
  const LoweredProblem::BatchPoint at = solver.solve(0, p.L, ws).point();
  EXPECT_EQ(testing::tolerance(solver, 0, p.L, kInf, ws, &at), kInf);

  const std::vector<double> from = {p.L, p.L + 500.0, p.L};
  const std::vector<double> budget = {kInf, kInf, at.value * 1.02};
  std::vector<double> out(from.size());
  LoweredProblem::Cursor bc;
  solver.max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                         from.size(), bc, out.data());
  for (std::size_t i = 0; i < from.size(); ++i) {
    EXPECT_EQ(bits(out[i]),
              bits(testing::tolerance(solver, 0, from[i], budget[i], ws)))
        << "lane " << i;
  }
  EXPECT_EQ(out[0], kInf);
  EXPECT_EQ(out[1], kInf);
  EXPECT_TRUE(std::isfinite(out[2]));
}

TEST(BudgetSearch, PooledInfeasibleLaneThrowsTheScalarError) {
  // Lanes 20 and 30 (past the first block) are infeasible; the pooled call
  // throws lane 20's one-lane message whatever the other lanes do.
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  std::vector<double> from(37, 500.0);
  std::vector<double> budget(37, 2'000.0);
  from[20] = 600.0;
  budget[20] = 1'650.0;  // T(600) = 1715
  budget[30] = 1'550.0;  // T(500) = 1615
  LoweredProblem::Cursor ws;
  std::string scalar;
  try {
    (void)testing::tolerance(solver, 0, from[20], budget[20], ws);
  } catch (const LpError& e) {
    scalar = e.what();
  }
  ASSERT_FALSE(scalar.empty());
  LoweredProblem::Cursor bc;
  std::vector<double> out(from.size());
  try {
    solver.max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                           from.size(), bc, out.data());
    ADD_FAILURE() << "infeasible lane did not throw";
  } catch (const LpError& e) {
    EXPECT_EQ(std::string(e.what()), scalar);
  }
}

TEST(BudgetSearch, PerturbedSpacesAgreeInValueAndRangeNotSlopeBits) {
  // The batch pass sums the active slope source -> sink, the scalar chain
  // walk sink -> source.  Integer coefficients make both sums exact; a
  // PerturbedParamSpace's noisy coefficients do not, so only values and
  // lo/hi are bitwise, and slopes agree to rounding.
  const auto g = schedgen::build_graph(apps::make_app_trace("hpcg", 64, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  Rng rng(0x5eed);
  std::vector<double> factors(g.num_edges());
  for (double& f : factors) f = std::exp(0.02 * rng.normal());
  const LoweredProblem solver(
      g, std::make_shared<PerturbedParamSpace>(
             std::make_shared<LatencyParamSpace>(p), factors));
  const auto xs = batch_grid(p.L, p.L + 100'000.0, 37, 0x9e7u);
  std::vector<LoweredProblem::BatchPoint> pts(xs.size());
  LoweredProblem::Cursor bc;
  solver.solve_batch_ranges(0, xs.data(), xs.size(), bc, pts.data());
  LoweredProblem::Cursor ws;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const LoweredProblem::BatchPoint dense = solver.solve(0, xs[i], ws).point();
    EXPECT_EQ(bits(pts[i].value), bits(dense.value)) << "x=" << xs[i];
    EXPECT_EQ(bits(pts[i].lo), bits(dense.lo)) << "x=" << xs[i];
    EXPECT_EQ(bits(pts[i].hi), bits(dense.hi)) << "x=" << xs[i];
    EXPECT_NEAR(pts[i].slope, dense.slope, 1e-12 * std::fabs(dense.slope))
        << "x=" << xs[i];
  }
}

// ---------------------------------------------------------------------------
// Lanes on relowered problems (the general mc path's lowerings): noisy
// non-integer coefficients make the kernel's forward slope differ from the
// chain-walk gradient in the last bits, so only re-walked slopes give the
// dense solve's and the single-lane search's bits.
// ---------------------------------------------------------------------------

/// Calls fn(prob, p) on every registered app's latency lowering, re-lowered
/// in place with fixed-seed edge noise at an operating point with o and G
/// moved off the preset.
template <typename F>
void for_each_relowered_app(F&& fn) {
  for (const std::string& app : apps::app_names()) {
    SCOPED_TRACE(app);
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto base = loggops::NetworkConfig::cscs_testbed();
    LoweredProblem prob(g, base);
    loggops::Params p = base;
    p.o = base.o * 1.15;
    p.G = base.G * 0.9;
    Rng rng(0x5eedu + g.num_edges());
    std::vector<double> factors(g.num_edges());
    for (double& f : factors) f = 1.0 + std::fabs(0.02 * rng.normal());
    prob.relower(p, factors);
    fn(static_cast<const LoweredProblem&>(prob), p);
  }
}

TEST(BatchPoints, RelowerLanesAreDensePointsAtEveryWidthAndLane) {
  // Every prefix width 1..17 (full block, pow2 tails, the padded 3-lane
  // tail), so every point sits at every lane position some call runs.
  std::size_t ranged_differs = 0;
  LoweredProblem::Cursor bc;
  for_each_relowered_app([&](const LoweredProblem& prob,
                             const loggops::Params& p) {
    const auto xs = batch_grid(p.L, p.L + 100'000.0, 17, 0x9e7u);
    std::vector<LoweredProblem::BatchPoint> dense;
    LoweredProblem::Cursor ws;
    for (const double x : xs) dense.push_back(prob.solve(0, x, ws).point());
    std::vector<LoweredProblem::BatchPoint> pts(xs.size());
    for (std::size_t n = 1; n <= 17; ++n) {
      prob.solve_batch_points(0, xs.data(), n, bc, pts.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(pts[i].value), bits(dense[i].value)) << n << "/" << i;
        ASSERT_EQ(bits(pts[i].slope), bits(dense[i].slope)) << n << "/" << i;
        ASSERT_EQ(bits(pts[i].lo), bits(dense[i].lo)) << n << "/" << i;
        ASSERT_EQ(bits(pts[i].hi), bits(dense[i].hi)) << n << "/" << i;
      }
    }
    prob.solve_batch_ranges(0, xs.data(), xs.size(), bc, pts.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ranged_differs += bits(pts[i].slope) != bits(dense[i].slope);
    }
  });
  // The forward slope does differ on these lowerings, so a pass that
  // reported it would fail the wall above.
  EXPECT_GT(ranged_differs, 0u);
}

TEST(BatchPoints, PooledSearchOnRelowerMatchesScalarSearches) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LoweredProblem::Cursor bc;
  for_each_relowered_app([&](const LoweredProblem& prob,
                             const loggops::Params& p) {
    const BudgetLanes lanes = budget_lanes(prob, p.L, 37);
    const auto ref = one_lane_searches(prob, lanes);
    // All 37 lanes, with and without the caller's opening points; then
    // 3-lane calls (the padded tail), one of them holding a +inf budget.
    std::vector<double> out(37);
    prob.max_param_for_budget_from_batch(0, lanes.from.data(),
                                         lanes.budget.data(), 37, bc,
                                         out.data());
    EXPECT_EQ(bits(out), ref);
    std::vector<LoweredProblem::BatchPoint> at(37);
    prob.solve_batch_points(0, lanes.from.data(), 37, bc, at.data());
    prob.max_param_for_budget_from_batch(0, lanes.from.data(),
                                         lanes.budget.data(), 37, bc,
                                         out.data(), at.data());
    EXPECT_EQ(bits(out), ref);
    for (const std::size_t first : {std::size_t{0}, std::size_t{8}}) {
      SCOPED_TRACE(first);
      prob.max_param_for_budget_from_batch(0, lanes.from.data() + first,
                                           lanes.budget.data() + first, 3,
                                           bc, out.data());
      EXPECT_EQ(bits(std::vector<double>(out.begin(), out.begin() + 3)),
                std::vector<std::uint64_t>(ref.begin() + first,
                                           ref.begin() + first + 3));
    }
    EXPECT_EQ(lanes.budget[10], kInf);
    EXPECT_EQ(out[2], kInf);

    // Lanes 1 and 2 of a 3-lane call are infeasible: lane 1's one-lane
    // error is the call's.
    std::vector<double> budget(lanes.budget.begin(), lanes.budget.begin() + 3);
    std::string scalar;
    LoweredProblem::Cursor ws;
    for (const std::size_t i : {std::size_t{2}, std::size_t{1}}) {
      budget[i] = prob.solve(0, lanes.from[i], ws).value * 0.9;
      try {
        (void)testing::tolerance(prob, 0, lanes.from[i], budget[i], ws);
      } catch (const LpError& e) {
        scalar = e.what();
      }
    }
    ASSERT_FALSE(scalar.empty());
    try {
      prob.max_param_for_budget_from_batch(0, lanes.from.data(),
                                           budget.data(), 3, bc, out.data());
      ADD_FAILURE() << "infeasible lane did not throw";
    } catch (const LpError& e) {
      EXPECT_EQ(std::string(e.what()), scalar);
    }
  });
}

TEST(Relower, InPlaceRelowerMatchesFreshPerturbedLoweringBitwise) {
  // One problem re-lowered at a sequence of operating points and factor
  // rows (o moving and not, all-ones and noisy factors) against a fresh
  // PerturbedParamSpace lowering of each: solves, ranges, batch passes and
  // the visible operating point all agree bit for bit.
  for (const char* app : {"lulesh", "hpcg", "milc"}) {
    SCOPED_TRACE(app);
    const int ranks = apps::supported_ranks(app, 27);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto base = loggops::NetworkConfig::cscs_testbed();
    LoweredProblem moving(g, base);
    Rng rng(0xfeed);
    LoweredProblem::Cursor cur;
    LoweredProblem::Cursor ref_cur;
    std::vector<double> factors(g.num_edges(), 1.0);
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(round);
      loggops::Params p = base;
      p.L = base.L * rng.uniform(0.5, 1.5);
      p.G = base.G * rng.uniform(0.5, 1.5);
      if (round % 2 == 1) p.o = base.o * rng.uniform(0.5, 1.5);
      for (double& f : factors) {
        f = round == 0 ? 1.0 : 1.0 + std::fabs(0.02 * rng.normal());
      }
      moving.relower(p, factors);
      const LoweredProblem fresh(
          g, std::make_shared<PerturbedParamSpace>(
                 std::make_shared<LatencyParamSpace>(p), factors));
      EXPECT_EQ(moving.space().params(), p);
      EXPECT_EQ(bits(moving.space().base_value(0)), bits(p.L));
      EXPECT_EQ(bits(moving.solve(0, p.L).value),
                bits(fresh.solve(0, p.L).value));
      const auto xs = batch_grid(p.L, p.L + 50'000.0, 21, 0x51u + round);
      for (const double x : xs) {
        const LoweredProblem::Solution& a = moving.solve(0, x, cur);
        const LoweredProblem::Solution& b = fresh.solve(0, x, ref_cur);
        ASSERT_EQ(bits(a.value), bits(b.value)) << "x=" << x;
        ASSERT_EQ(bits(a.gradient[0]), bits(b.gradient[0])) << "x=" << x;
        ASSERT_EQ(bits(a.lo), bits(b.lo)) << "x=" << x;
        ASSERT_EQ(bits(a.hi), bits(b.hi)) << "x=" << x;
      }
      std::vector<LoweredProblem::BatchPoint> pa(xs.size());
      std::vector<LoweredProblem::BatchPoint> pb(xs.size());
      moving.solve_batch_ranges(0, xs.data(), xs.size(), cur, pa.data());
      fresh.solve_batch_ranges(0, xs.data(), xs.size(), ref_cur, pb.data());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(bits(pa[i].value), bits(pb[i].value));
        ASSERT_EQ(bits(pa[i].slope), bits(pb[i].slope));
      }
    }
  }
}

TEST(Relower, OnlyAnOwnedLatencyLoweringMovesAndBadInputsTouchNothing) {
  const auto g = schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  std::vector<double> ones(g.num_edges(), 1.0);

  // A problem over a caller's space can never be re-lowered.
  LoweredProblem shared(g, std::make_shared<LatencyParamSpace>(p));
  EXPECT_THROW(shared.relower(p, ones), LpError);

  // Nor can an owned one while someone else holds its space.
  LoweredProblem owned(g, p);
  {
    const auto held = owned.space_ptr();
    EXPECT_THROW(owned.relower(p, ones), LpError);
  }
  owned.relower(p, ones);

  // Bad operating points and factor rows throw before any row moves.
  const double before = owned.solve(0, p.L).value;
  loggops::Params bad = p;
  bad.o = -1.0;
  std::vector<double> big(g.num_edges(), 3.0);
  EXPECT_THROW(owned.relower(bad, big), Error);
  big.back() = std::numeric_limits<double>::infinity();
  EXPECT_THROW(owned.relower(p, big), LpError);
  big.back() = -0.5;
  EXPECT_THROW(owned.relower(p, big), LpError);
  EXPECT_THROW(owned.relower(p, std::vector<double>(3, 1.0)), LpError);
  EXPECT_EQ(bits(owned.solve(0, p.L).value), bits(before));
  EXPECT_EQ(owned.space().params(), p);
}

// ---------------------------------------------------------------------------
// The pooled search through a solver-cache entry's memo: hits and misses in
// any lane order, keys shared with one-lane calls, throws never stored.
// Every answer must be the direct pooled call's, bit for bit.
// ---------------------------------------------------------------------------

TEST(SolverCacheEntry, PooledMemoIsBitwiseDirectOnAllRegisteredApps) {
  constexpr std::size_t kLanes = 37;
  LoweredProblem::Cursor cur;
  LoweredProblem::Cursor dcur;
  for (const std::string& app : apps::app_names()) {
    SCOPED_TRACE(app);
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const core::GraphKey key{app, ranks, 0.02, p.S};
    const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
    // budget_lanes' lanes, unbounded budgets included, in a fixed shuffled
    // order, so the lanes one-lane calls store first land anywhere in the
    // pooled call.
    const BudgetLanes lanes = budget_lanes(direct, p.L, kLanes);
    std::vector<std::size_t> order(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) order[i] = i;
    Rng rng(0x1a9e5);
    for (std::size_t i = kLanes; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
    std::vector<double> from(kLanes);
    std::vector<double> budget(kLanes);
    for (std::size_t j = 0; j < kLanes; ++j) {
      from[j] = lanes.from[order[j]];
      budget[j] = lanes.budget[order[j]];
    }
    std::vector<double> direct_out(kLanes);
    direct.max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                           kLanes, dcur, direct_out.data());
    const auto ref = bits(direct_out);
    core::SolverCache cache;
    const auto entry = cache.latency(key, g, p);
    // One-lane calls store every third lane; the pooled call then
    // hits every lane sharing one of those keys and misses the rest.
    std::set<std::pair<std::uint64_t, std::uint64_t>> stored;
    for (std::size_t j = 0; j < kLanes; j += 3) {
      EXPECT_EQ(bits(entry_tolerance(*entry, 0, from[j], budget[j], cur)),
                ref[j])
          << "lane " << j;
      stored.insert({bits(from[j]), bits(budget[j])});
    }
    std::size_t hits = 0;
    for (std::size_t j = 0; j < kLanes; ++j) {
      hits += stored.count({bits(from[j]), bits(budget[j])});
    }
    const auto s0 = cache.stats();
    std::vector<double> out(kLanes);
    entry->max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                           kLanes, cur, out.data());
    EXPECT_EQ(bits(out), ref);
    const auto s1 = cache.stats();
    EXPECT_EQ(s1.memo_hits - s0.memo_hits, hits);
    EXPECT_EQ(s1.memo_misses - s0.memo_misses, kLanes - hits);

    // The reverse: every key the pooled call stored hits a one-lane call.
    for (std::size_t j = 0; j < kLanes; ++j) {
      EXPECT_EQ(bits(entry_tolerance(*entry, 0, from[j], budget[j], cur)),
                ref[j])
          << "lane " << j;
    }
    const auto s2 = cache.stats();
    EXPECT_EQ(s2.memo_misses, s1.memo_misses);
    EXPECT_EQ(s2.memo_hits - s1.memo_hits, kLanes);

    // A repeated pooled call is all hits: no search runs, same bits.
    std::fill(out.begin(), out.end(), std::nan(""));
    entry->max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                           kLanes, cur, out.data());
    EXPECT_EQ(bits(out), ref);
    const auto s3 = cache.stats();
    EXPECT_EQ(s3.memo_misses, s2.memo_misses);
    EXPECT_EQ(s3.memo_hits - s2.memo_hits, kLanes);
    EXPECT_EQ(s3.memo_bytes, s2.memo_bytes);
  }
}

TEST(SolverCacheEntry, PooledMemoInfeasibleLaneThrowsTheScalarErrorAndStoresNothing) {
  // Lanes 20 and 30 are infeasible and lanes 5 and 25 are memo hits; the
  // pooled call raises lane 20's one-lane message and stores none of the
  // misses it computed before throwing.
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, p.S}, g, p);
  const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
  constexpr std::size_t kLanes = 37;
  std::vector<double> from(kLanes, 500.0);
  std::vector<double> budget(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    budget[i] = 2'000.0 + static_cast<double>(i);
  }
  from[20] = 600.0;
  budget[20] = 1'650.0;  // T(600) = 1715
  budget[30] = 1'550.0;  // T(500) = 1615
  LoweredProblem::Cursor cur;
  std::string scalar;
  try {
    (void)testing::tolerance(direct, 0, from[20], budget[20], cur);
  } catch (const LpError& e) {
    scalar = e.what();
  }
  ASSERT_FALSE(scalar.empty());

  (void)entry_tolerance(*entry, 0, from[5], budget[5], cur);
  (void)entry_tolerance(*entry, 0, from[25], budget[25], cur);
  const auto before = cache.stats();
  std::vector<double> out(kLanes);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      entry->max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                             kLanes, cur, out.data());
      ADD_FAILURE() << "infeasible lane did not throw";
    } catch (const LpError& e) {
      EXPECT_EQ(std::string(e.what()), scalar);
    }
  }
  const auto after = cache.stats();
  EXPECT_EQ(after.memo_bytes, before.memo_bytes);
  EXPECT_EQ(after.memo_hits - before.memo_hits, 2u * 2u);
  EXPECT_EQ(after.memo_misses - before.memo_misses, 2u * (kLanes - 2));
  // Lane 0 was computed by both throwing calls but never stored.
  (void)entry_tolerance(*entry, 0, from[0], budget[0], cur);
  EXPECT_EQ(cache.stats().memo_misses, after.memo_misses + 1);

  // With both lanes made feasible the same call completes, bitwise direct.
  from[20] = 500.0;
  budget[30] = 1'615.0;
  std::vector<double> ref(kLanes);
  direct.max_param_for_budget_from_batch(0, from.data(), budget.data(), kLanes,
                                         cur, ref.data());
  entry->max_param_for_budget_from_batch(0, from.data(), budget.data(), kLanes,
                                         cur, out.data());
  EXPECT_EQ(bits(out), bits(ref));
}

TEST(SolverCacheEntry, ConcurrentPooledMemoCallsAreBitwiseDirect) {
  // 8 threads race pooled calls over overlapping lane windows and one-lane
  // calls on the same keys, on one entry: first touches, duplicate stores
  // and hits interleave, and every answer must equal the direct pooled
  // call.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  core::SolverCache cache;
  const auto entry = cache.latency(core::GraphKey{"lulesh", 8, 0.02, p.S}, g, p);
  const LoweredProblem direct(g, std::make_shared<LatencyParamSpace>(p));
  constexpr std::size_t kLanes = 96;
  constexpr std::size_t kWindow = 48;
  const BudgetLanes lanes = budget_lanes(direct, p.L, kLanes);
  std::vector<double> ref_out(kLanes);
  {
    LoweredProblem::Cursor dcur;
    direct.max_param_for_budget_from_batch(0, lanes.from.data(),
                                           lanes.budget.data(), kLanes, dcur,
                                           ref_out.data());
  }
  const auto ref = bits(ref_out);

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LoweredProblem::Cursor cur;
      std::vector<double> out(kWindow);
      for (int r = 0; r < 12; ++r) {
        const auto start =
            static_cast<std::size_t>(7 * t + 13 * r) % (kLanes - kWindow);
        const std::size_t n = 1 + static_cast<std::size_t>(5 * t + r) % kWindow;
        entry->max_param_for_budget_from_batch(
            0, lanes.from.data() + start, lanes.budget.data() + start, n, cur,
            out.data());
        for (std::size_t l = 0; l < n; ++l) {
          if (bits(out[l]) != ref[start + l]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
        if (bits(entry_tolerance(*entry, 0, lanes.from[start],
                                 lanes.budget[start], cur)) != ref[start]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_GT(cache.stats().memo_hits, 0u);
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
  LoweredProblem::Cursor ws;
  std::vector<LoweredProblem::BatchPoint> evals;
  const std::size_t replays = replay_walk(solver, 0, xs, ws, evals);
  EXPECT_EQ(xs.size() - replays, 2u) << "one anchor per piece";
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
