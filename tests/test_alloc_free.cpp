#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "core/solver_cache.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "stoch/mc.hpp"
#include "test_support.hpp"

// Allocation-counter wall for the solver hot path: after a warm-up solve
// has grown a workspace's buffers, steady-state solves and segment-walk
// sweeps through that workspace must perform ZERO heap allocations.  The
// global operator new/delete are replaced with counting versions — this
// test lives in its own binary so the override cannot disturb any other
// suite.

namespace {
thread_local std::size_t g_allocations = 0;
thread_local std::size_t g_allocated_bytes = 0;

void* counted_malloc(std::size_t size) {
  ++g_allocations;
  g_allocated_bytes += size;
  return std::malloc(size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

// std::stable_sort takes its buffer from the nothrow forms; they are
// replaced too, so every allocation is counted and pairs with free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

// Out of line, so GCC never pairs an inlined free() with an opaque
// operator new (-Wmismatched-new-delete).
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                  std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace llamp::lp {
namespace {

TEST(AllocationFree, SteadyStateSolvesAllocateNothing) {
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  // Warm-up: grows every buffer to its structural maximum.
  (void)solver.solve(0, p.L, ws);

  const std::size_t before = g_allocations;
  for (int i = 0; i < 100; ++i) {
    const auto& sol = solver.solve(0, p.L + 1'000.0 * i, ws);
    ASSERT_GT(sol.value, 0.0);
  }
  EXPECT_EQ(g_allocations, before)
      << "steady-state solve() allocated on the heap";
}

TEST(AllocationFree, SegmentWalkSweepAllocatesNothing) {
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(p.L + 500.0 * i);
  std::vector<LoweredProblem::SweepEval> out(xs.size());

  solver.sweep(0, xs, ws, out.data());  // warm-up

  const std::size_t before = g_allocations;
  solver.sweep(0, xs, ws, out.data());
  EXPECT_EQ(g_allocations, before)
      << "steady-state sweep() allocated on the heap";
}

TEST(AllocationFree, BatchSolvesAllocateNothingAfterWarmup) {
  // Same wall for the batched kernel: once prepare_batch has grown the
  // cursor's lane buffers, solve_batch / solve_batch_ranges / the lockstep
  // budget search must be heap-silent, at full blocks and at every tail
  // width.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor bc;

  std::vector<double> xs(kBatchWidth + 3);
  for (std::size_t l = 0; l < xs.size(); ++l) {
    xs[l] = p.L + 250.0 * static_cast<double>(l);
  }
  std::vector<LoweredProblem::BatchPoint> pts(xs.size());
  std::vector<double> from(xs.size(), p.L);
  std::vector<double> budgets(xs.size());
  std::vector<double> tols(xs.size());
  const double v0 = solver.solve(0, p.L).value;
  for (std::size_t l = 0; l < xs.size(); ++l) {
    budgets[l] = v0 * (1.02 + 0.01 * static_cast<double>(l));
  }

  // Warm-up: one call per entry point grows every lane buffer.
  solver.solve_batch(0, xs.data(), xs.size(), bc, pts.data());
  solver.solve_batch_ranges(0, xs.data(), xs.size(), bc, pts.data());
  solver.max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                         xs.size(), bc, tols.data());

  const std::size_t before = g_allocations;
  for (int round = 0; round < 20; ++round) {
    for (std::size_t n : {xs.size(), kBatchWidth, std::size_t{5},
                          std::size_t{1}}) {
      solver.solve_batch(0, xs.data(), n, bc, pts.data());
      solver.solve_batch_ranges(0, xs.data(), n, bc, pts.data());
      ASSERT_GT(pts[0].value, 0.0);
    }
    solver.max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                           xs.size(), bc, tols.data());
  }
  EXPECT_EQ(g_allocations, before)
      << "steady-state batch kernel allocated on the heap";
}

TEST(AllocationFree, PooledBudgetSearchAllocatesNothingAfterWarmup) {
  // The pooled search keeps its per-lane bracket, eps and live list in
  // grow-only cursor rows: once one 48-lane call (three bands of a full mc
  // lane group) has grown them, calls of that size or smaller, with or
  // without the caller's first pass, are heap-silent.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor bc;

  constexpr std::size_t kLanes = 3 * kBatchWidth;
  std::vector<double> from(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    from[l] = p.L + 300.0 * static_cast<double>(l % kBatchWidth);
  }
  std::vector<LoweredProblem::BatchPoint> at(kLanes);
  solver.solve_batch_ranges(0, from.data(), kLanes, bc, at.data());
  std::vector<double> budgets(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    budgets[l] = at[l].value * (1.0 + 0.01 * static_cast<double>(l / 8));
  }
  std::vector<double> tols(kLanes);

  solver.max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                         kLanes, bc, tols.data(), at.data());
  solver.max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                         kLanes, bc, tols.data());

  const std::size_t before = g_allocations;
  for (int round = 0; round < 10; ++round) {
    for (const std::size_t n : {kLanes, std::size_t{37}, std::size_t{3}}) {
      solver.max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                             n, bc, tols.data(), at.data());
      solver.max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                             n, bc, tols.data());
      ASSERT_GE(tols[0], from[0]);
    }
  }
  EXPECT_EQ(g_allocations, before)
      << "steady-state pooled budget search allocated on the heap";
}

TEST(AllocationFree, BatchRowsAreSizedByTheLanesACallRuns) {
  // A narrow call sizes the lane rows for its own width, not the full
  // block width; a cursor warmed at full width serves narrower calls
  // without allocating.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 27, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  std::vector<double> xs(kBatchWidth);
  for (std::size_t l = 0; l < xs.size(); ++l) {
    xs[l] = p.L + 250.0 * static_cast<double>(l);
  }
  std::vector<LoweredProblem::BatchPoint> pts(xs.size());
  // Two rows (finish, slope) of doubles per vertex and lane.
  const std::size_t row_bytes_per_lane = 2 * sizeof(double) * g.num_vertices();

  LoweredProblem::Cursor narrow;
  std::size_t before = g_allocated_bytes;
  solver.solve_batch_ranges(0, xs.data(), 4, narrow, pts.data());
  const std::size_t four_lanes = g_allocated_bytes - before;
  EXPECT_GE(four_lanes, 4 * row_bytes_per_lane);
  EXPECT_LT(four_lanes, 8 * row_bytes_per_lane)
      << "a 4-lane call sized its rows for more than 4 lanes";

  LoweredProblem::Cursor wide;
  solver.solve_batch_ranges(0, xs.data(), kBatchWidth, wide, pts.data());
  before = g_allocations;
  for (int round = 0; round < 20; ++round) {
    solver.solve_batch(0, xs.data(), 4, wide, pts.data());
    solver.solve_batch_ranges(0, xs.data(), 4, wide, pts.data());
    ASSERT_GT(pts[0].value, 0.0);
  }
  EXPECT_EQ(g_allocations, before)
      << "4-lane calls on a cursor warmed at full width allocated";
}

TEST(AllocationFree, WorkspaceReuseAcrossSolversOnlyGrows) {
  // Moving a warm workspace to a *smaller* scenario must stay
  // allocation-free; only growth may allocate.
  const auto big =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.03));
  const auto small = llamp::testing::running_example_graph();
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem sb(big, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem ss(
      small,
      std::make_shared<LatencyParamSpace>(llamp::testing::running_example_params()));
  LoweredProblem::Cursor ws;
  (void)sb.solve(0, p.L, ws);

  const std::size_t before = g_allocations;
  for (int i = 0; i < 50; ++i) {
    (void)ss.solve(0, 100.0 * i, ws);
    (void)sb.solve(0, p.L + 100.0 * i, ws);
  }
  EXPECT_EQ(g_allocations, before);
}

TEST(AllocationFree, WarmEntryMemoHitsAllocateNothing) {
  // The warm analyze path through a solver-cache entry: once warmed,
  // tolerance memo hits, λ_G reads and anchor replays are heap-silent, and
  // an Algorithm-2 hit allocates only the vector it returns.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  core::SolverCache cache;
  const core::GraphKey key{"hpcg", 8, 0.02, p.S};
  const auto entry = cache.latency(key, g, p);
  LoweredProblem::Cursor cur;

  // Warm-up: one computing call per memo; the analyzer's base eval
  // publishes the base-L anchor whose critical path λ_G sums.
  const core::LatencyAnalyzer an(g, p, cache, key);
  const double base = an.base_runtime();
  const double hi = p.L + 100'000.0;
  const double step = 100'000.0 / 64.0;
  (void)entry->max_param_for_budget_from(0, p.L, base * 1.02, cur);
  ASSERT_GT(an.lambda_G(), 0.0);
  const auto crit = entry->critical_values_algorithm2(0, p.L, hi, step);
  ASSERT_FALSE(crit.empty());

  std::size_t before = g_allocations;
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    sink += entry->max_param_for_budget_from(0, p.L, base * 1.02, cur);
    sink += an.lambda_G();
    sink += entry->eval(0, p.L, cur).value;
  }
  EXPECT_EQ(g_allocations, before)
      << "warm memo hits / anchor replays allocated on the heap";
  EXPECT_GT(sink, 0.0);

  before = g_allocations;
  const auto again = entry->critical_values_algorithm2(0, p.L, hi, step);
  EXPECT_EQ(g_allocations - before, 1u)
      << "an Algorithm-2 hit allocates exactly its returned vector";
  EXPECT_EQ(again, crit);
  // 100 tolerance hits and one Algorithm-2 hit; λ_G repeats read the
  // base-L anchor instead of hitting a memo.
  EXPECT_EQ(cache.stats().memo_hits, 101u);
}

TEST(AllocationFree, WarmPooledBudgetMemoHitsAllocateNothing) {
  // mc's band searches through a solver-cache entry: the misses are
  // gathered into grow-only cursor rows, so once one 48-lane call (three
  // bands of a full mc lane group) has grown them, an all-hit call is
  // heap-silent and a mixed call allocates only the memo node of each
  // result it stores — none once the entry's byte budget is spent.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  core::SolverCache cache;
  const auto entry = cache.latency(core::GraphKey{"hpcg", 8, 0.02, p.S}, g, p);
  LoweredProblem::Cursor cur;

  constexpr std::size_t kLanes = 3 * kBatchWidth;
  std::vector<double> from(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    from[l] = p.L + 300.0 * static_cast<double>(l % kBatchWidth);
  }
  std::vector<LoweredProblem::BatchPoint> at(kLanes);
  entry->problem()->solve_batch_ranges(0, from.data(), kLanes, cur, at.data());
  std::vector<double> budgets(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    budgets[l] = at[l].value * (1.0 + 0.01 * static_cast<double>(l / 8 + 1));
  }
  std::vector<double> tols(kLanes);

  // Warm-up: one all-miss call grows the gather and search rows.
  entry->max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                         kLanes, cur, tols.data(), at.data());
  ASSERT_EQ(cache.stats().memo_misses, kLanes);

  std::size_t before = g_allocations;
  for (int round = 0; round < 10; ++round) {
    for (const std::size_t n : {kLanes, std::size_t{37}, std::size_t{3}}) {
      entry->max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                             n, cur, tols.data(), at.data());
      entry->max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                             n, cur, tols.data());
      ASSERT_GE(tols[0], from[0]);
    }
  }
  EXPECT_EQ(g_allocations, before) << "all-hit pooled memo calls allocated";
  EXPECT_EQ(cache.stats().memo_misses, kLanes);

  // Mixed: every other lane a new 50% band.  The 24 misses run one pooled
  // call on the warm rows; the only allocations are their 24 memo nodes.
  for (std::size_t l = 1; l < kLanes; l += 2) {
    budgets[l] = at[l].value * (1.5 + 0.01 * static_cast<double>(l));
  }
  before = g_allocations;
  entry->max_param_for_budget_from_batch(0, from.data(), budgets.data(),
                                         kLanes, cur, tols.data(), at.data());
  EXPECT_EQ(g_allocations - before, kLanes / 2)
      << "a mixed call allocated beyond its stored memo nodes";
  EXPECT_EQ(cache.stats().memo_misses, kLanes + kLanes / 2);

  // Past the byte budget a mixed call stores nothing and allocates
  // nothing.  The running example fills an entry's budget cheaply.
  const auto rg = llamp::testing::running_example_graph();
  const auto rp = llamp::testing::running_example_params();
  const auto small =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, rp.S}, rg, rp);
  std::vector<double> rfrom(kLanes, 500.0);  // T(500) = 1615
  std::vector<double> rbudget(kLanes);
  double next = 1'615.0;
  const auto fill = [&] {
    for (double& b : rbudget) b = (next += 0.25);
  };
  constexpr std::size_t kCallBytes =
      kLanes * (5 * sizeof(std::uint64_t) + sizeof(double));
  std::vector<double> stored;  // the last call whose lanes all fit
  std::size_t bytes = cache.stats().memo_bytes;
  bool spent = false;
  for (std::size_t call = 0;
       call <= core::SolverCache::Entry::kMemoBudgetBytes / kCallBytes + 1;
       ++call) {
    fill();
    small->max_param_for_budget_from_batch(0, rfrom.data(), rbudget.data(),
                                           kLanes, cur, tols.data());
    const std::size_t now = cache.stats().memo_bytes;
    if (now - bytes < kCallBytes) {
      spent = true;  // some lanes no longer fit
      break;
    }
    bytes = now;
    stored = rbudget;
  }
  ASSERT_TRUE(spent) << "the entry stored past its byte budget";
  ASSERT_FALSE(stored.empty());
  // Even lanes hit stored keys, odd lanes are new.
  rbudget = stored;
  for (std::size_t l = 1; l < kLanes; l += 2) rbudget[l] = (next += 0.25);
  bytes = cache.stats().memo_bytes;
  const std::size_t misses = cache.stats().memo_misses;
  before = g_allocations;
  small->max_param_for_budget_from_batch(0, rfrom.data(), rbudget.data(),
                                         kLanes, cur, tols.data());
  EXPECT_EQ(g_allocations, before)
      << "a mixed call past the byte budget allocated";
  EXPECT_EQ(cache.stats().memo_misses, misses + kLanes / 2);
  EXPECT_EQ(cache.stats().memo_bytes, bytes);
}

TEST(AllocationFree, GeneralPathMcSamplesAllocateNothingInSteadyState) {
  // A general-path mc run on one thread allocates its buffers and the
  // worker's one lowering up front.  Every further sample (its draws, the
  // in-place re-lowering, the solve, the sweep and the band searches) must
  // allocate nothing, so a 40-sample run allocates exactly as often as a
  // 4-sample one.
  const auto g = schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  stoch::McSpec spec;
  spec.L = stoch::Distribution::rel_normal(0.05);
  spec.o = stoch::Distribution::rel_normal(0.02);
  spec.G = stoch::Distribution::rel_normal(0.05);
  spec.noise = {0.02, 0.0};
  spec.delta_Ls = {0.0, 10'000.0, 20'000.0};
  spec.band_percents = {1.0, 2.0, 5.0};
  spec.threads = 1;
  const auto allocations = [&](int samples) {
    spec.samples = samples;
    const std::size_t before = g_allocations;
    const stoch::McResult res = stoch::run_mc(g, p, spec);
    EXPECT_FALSE(res.batched);
    return g_allocations - before;
  };
  (void)allocations(4);  // one-time statics
  EXPECT_EQ(allocations(40), allocations(4));
}

}  // namespace
}  // namespace llamp::lp
