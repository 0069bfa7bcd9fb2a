// Reproduces the paper's running example end to end (Figs. 4, 5, 6, 16 and
// Equations 5/6): the explicit LP, its solution and reduced cost, the
// critical latency found by Algorithm 2, and the tolerance LP of §II-D2.
// Every number printed here is pinned by unit tests; this harness exists to
// show them side by side with the paper's values.

#include <cmath>
#include <cstdio>
#include <memory>

#include "lp/graph_lp.hpp"
#include "lp/parametric.hpp"
#include "lp/simplex.hpp"
#include "schedgen/schedgen.hpp"
#include "trace/builder.hpp"
#include "util/strings.hpp"

int main() {
  using namespace llamp;

  trace::TraceBuilder tb(2, 0.0);
  tb.compute(0, 100.0);
  tb.send(0, 1, 4);
  tb.compute(0, 1'000.0);
  tb.compute(1, 500.0);
  tb.recv(1, 0, 4);
  tb.compute(1, 1'000.0);
  const auto g = schedgen::build_graph(tb.finish());

  loggops::Params p;
  p.L = 0.0;
  p.o = 0.0;
  p.G = 5.0;

  std::printf("=== Running example (Fig. 4c): c = {0.1, 1, 0.5, 1} us, "
              "s = 4 B, o = 0, G = 5 ns/B ===\n\n");

  const lp::LatencyParamSpace space(p);
  auto glp = lp::build_graph_lp(g, space);
  std::printf("Algorithm 1 LP (cf. Equation 6 of the paper):\n%s\n",
              glp.model.to_string().c_str());

  glp.model.set_var_lower(glp.param_vars[0], 500.0);
  const lp::SimplexSolver simplex;
  const auto sol = simplex.solve(glp.model);
  const auto range = simplex.bound_range(glp.model, sol, glp.param_vars[0]);
  std::printf("simplex with l >= 0.5 us:  T = %s (paper: 1.615 us), "
              "RC(l) = %.0f (paper: 1)\n",
              human_time_ns(sol.objective).c_str(),
              sol.reduced_cost[static_cast<std::size_t>(glp.param_vars[0])]);
  std::printf("feasibility range of l (SALBLow): [%s, %s]  "
              "(paper Fig. 16: 0.385 us)\n\n",
              human_time_ns(range.lo).c_str(),
              std::isfinite(range.hi) ? human_time_ns(range.hi).c_str()
                                      : "inf");

  const auto shared = std::make_shared<lp::LatencyParamSpace>(p);
  lp::LoweredProblem solver(g, shared);
  std::printf("piecewise T(L) over [0, 1 us] (Fig. 4c):\n");
  for (const auto& seg : solver.piecewise(0, 0.0, 1'000.0)) {
    std::printf("  L in [%8s, %8s]: T = %s + %.0f * (L - %s)\n",
                human_time_ns(seg.lo).c_str(),
                std::isfinite(seg.hi) ? human_time_ns(seg.hi).c_str() : "inf",
                human_time_ns(seg.value_at_lo).c_str(), seg.slope,
                human_time_ns(seg.lo).c_str());
  }
  const auto crit = solver.critical_values(0, 0.0, 1'000.0);
  std::printf("critical latency L_c = %s (paper: 0.385 us)\n\n",
              crit.empty() ? "none" : human_time_ns(crit[0]).c_str());

  const auto tol_model = lp::make_tolerance_model(glp, 0, 2'000.0);
  const auto tol_sol = simplex.solve(tol_model);
  std::printf("tolerance LP (max l s.t. t <= 2 us, Fig. 6): l* = %s "
              "(paper: 0.885 us)\n",
              human_time_ns(tol_sol.objective).c_str());
  const double budget = 2'000.0;
  double tol = 0.0;
  lp::LoweredProblem::Cursor cur;
  solver.max_param_for_budget_from_batch(0, &p.L, &budget, 1, cur, &tol);
  std::printf("parametric solver agrees: %s\n", human_time_ns(tol).c_str());
  return 0;
}
