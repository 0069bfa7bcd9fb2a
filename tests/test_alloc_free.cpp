#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/registry.hpp"
#include "core/solver_cache.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
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
  LoweredProblem::BatchCursor bc;

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

  LoweredProblem::BatchCursor narrow;
  std::size_t before = g_allocated_bytes;
  solver.solve_batch_ranges(0, xs.data(), 4, narrow, pts.data());
  const std::size_t four_lanes = g_allocated_bytes - before;
  EXPECT_GE(four_lanes, 4 * row_bytes_per_lane);
  EXPECT_LT(four_lanes, 8 * row_bytes_per_lane)
      << "a 4-lane call sized its rows for more than 4 lanes";

  LoweredProblem::BatchCursor wide;
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
  // tolerance and λ_G memo hits and anchor replays are heap-silent, and an
  // Algorithm-2 hit allocates only the vector it returns.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  core::SolverCache cache;
  const core::GraphKey key{"hpcg", 8, 0.02, p.S};
  const auto entry = cache.latency(key, g, p);
  const auto bw = cache.latency_bandwidth(key, g, p);
  LoweredProblem::Cursor cur;

  // Warm-up: one computing call per memo, one anchor-publishing eval.
  const double base = entry->eval(0, p.L, cur).value;
  const double hi = p.L + 100'000.0;
  const double step = 100'000.0 / 64.0;
  (void)entry->max_param_for_budget_from(0, p.L, base * 1.02, cur);
  (void)bw->eval(1, p.G, cur);
  const auto crit = entry->critical_values_algorithm2(0, p.L, hi, step);
  ASSERT_FALSE(crit.empty());

  std::size_t before = g_allocations;
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    sink += entry->max_param_for_budget_from(0, p.L, base * 1.02, cur);
    sink += bw->eval(1, p.G, cur).slope;
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
  EXPECT_EQ(cache.stats().memo_hits, 201u);
}

}  // namespace
}  // namespace llamp::lp
