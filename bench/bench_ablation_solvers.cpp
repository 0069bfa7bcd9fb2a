// Solver ablation (§II-C discussion): google-benchmark microbenchmarks of
// the three ways to answer "what is T and λ_L at a given L":
//
//   * ParametricSolve  — LLAMP's exact parametric critical-path LP solve
//     (value + gradient + feasibility range in one pass),
//   * DiscreteEventSim — the LogGOPSim-style replay (value only; a second
//     traversal would be needed for λ_L),
//   * SimplexSolve     — the explicit Algorithm-1 LP through the dense
//     revised simplex (small graphs only; this is why the repo pairs the
//     general solver with the parametric one),
//   * ToleranceSearch  — the §II-D2 tolerance query, which replaces an
//     entire parameter sweep,
//   * GraphLpBuild     — cost of materializing the explicit LP.

#include <benchmark/benchmark.h>

#include <memory>

#include "apps/registry.hpp"
#include "lp/graph_lp.hpp"
#include "lp/parametric.hpp"
#include "lp/simplex.hpp"
#include "schedgen/schedgen.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace llamp;

const loggops::Params kParams = loggops::NetworkConfig::cscs_testbed(5'000.0);

/// Graph sizes controlled by the benchmark range argument (iterations of
/// the CloverLeaf proxy: communication-heavy, structurally app-like).
graph::Graph make_graph(int scale_permille) {
  return schedgen::build_graph(apps::make_app_trace(
      "cloverleaf", 16, static_cast<double>(scale_permille) / 1000.0));
}

void BM_ParametricSolve(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto space = std::make_shared<lp::LatencyParamSpace>(kParams);
  lp::LoweredProblem solver(g, space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(0, kParams.L).value);
  }
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
}
BENCHMARK(BM_ParametricSolve)->Arg(100)->Arg(400)->Arg(1600);

void BM_DiscreteEventSim(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  sim::Simulator sim(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(kParams).makespan);
  }
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
}
BENCHMARK(BM_DiscreteEventSim)->Arg(100)->Arg(400)->Arg(1600);

void BM_SimplexSolve(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const lp::LatencyParamSpace space(kParams);
  const auto glp = lp::build_graph_lp(g, space);
  const lp::SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(glp.model).objective);
  }
  state.counters["rows"] = static_cast<double>(glp.model.num_constraints());
}
BENCHMARK(BM_SimplexSolve)->Arg(20)->Arg(50);

void BM_GraphLpBuild(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const lp::LatencyParamSpace space(kParams);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::build_graph_lp(g, space).model.num_vars());
  }
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
}
BENCHMARK(BM_GraphLpBuild)->Arg(400)->Arg(1600);

void BM_ToleranceSearch(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto space = std::make_shared<lp::LatencyParamSpace>(kParams);
  lp::LoweredProblem solver(g, space);
  const double budget = solver.solve(0, kParams.L).value * 1.05;
  lp::LoweredProblem::Cursor cur;
  double tol = 0.0;
  for (auto _ : state) {
    solver.max_param_for_budget_from_batch(0, &kParams.L, &budget, 1, cur,
                                           &tol);
    benchmark::DoNotOptimize(tol);
  }
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
}
BENCHMARK(BM_ToleranceSearch)->Arg(400)->Arg(1600);

void BM_SchedgenBuild(benchmark::State& state) {
  const auto trace = apps::make_app_trace(
      "cloverleaf", 16, static_cast<double>(state.range(0)) / 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedgen::build_graph(trace).num_vertices());
  }
}
BENCHMARK(BM_SchedgenBuild)->Arg(400)->Arg(1600);

}  // namespace

BENCHMARK_MAIN();
