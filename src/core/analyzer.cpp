#include "core/analyzer.hpp"

#include <cmath>
#include <cstdint>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace llamp::core {

double finite_base_runtime(double runtime) {
  if (!std::isfinite(runtime)) {
    throw Error(strformat(
        "base runtime is not finite (T = %g): the scenario's costs overflow",
        runtime));
  }
  return runtime;
}

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p)
    : LatencyAnalyzer(g, p, std::make_unique<SolverCache>(), nullptr,
                      GraphKey{}) {}

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p,
                                 SolverCache& cache, const GraphKey& key)
    : LatencyAnalyzer(g, p, nullptr, &cache, key) {}

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p,
                                 std::unique_ptr<SolverCache> own_cache,
                                 SolverCache* cache, const GraphKey& key)
    : params_(p),
      own_cache_(std::move(own_cache)),
      entry_((cache != nullptr ? *cache : *own_cache_).latency(key, g, p)),
      base_runtime_(finite_base_runtime(eval(params_.L).value)) {}

lp::LoweredProblem::BatchPoint LatencyAnalyzer::eval(double x) const {
  lp::LoweredProblem::Cursor cur;
  lp::LoweredProblem::BatchPoint pt;
  entry_->eval_batch(0, &x, 1, cur, &pt);
  return pt;
}

TimeNs LatencyAnalyzer::predict_runtime(TimeNs delta_L) const {
  return eval(params_.L + delta_L).value;
}

double LatencyAnalyzer::lambda_L(TimeNs delta_L) const {
  return eval(params_.L + delta_L).slope;
}

double LatencyAnalyzer::rho_L(TimeNs delta_L) const {
  const double x = params_.L + delta_L;
  const auto ev = eval(x);
  if (ev.value <= 0.0) return 0.0;
  return x * ev.slope / ev.value;
}

std::vector<TimeNs> LatencyAnalyzer::tolerances(
    std::span<const double> percents) const {
  // Checked before the memo is consulted: NaN would otherwise run the
  // whole bounded search before failing to converge.
  for (const double percent : percents) {
    if (!(percent >= 0.0) || !std::isfinite(percent)) {
      throw Error(strformat(
          "tolerance: percentage must be finite and >= 0 (got %g)", percent));
    }
  }
  const std::size_t n = percents.size();
  const std::vector<double> from(n, params_.L);
  std::vector<double> budget(n);
  for (std::size_t b = 0; b < n; ++b) {
    budget[b] = base_runtime_ * (1.0 + percents[b] / 100.0);
  }
  std::vector<TimeNs> tol(n);
  lp::LoweredProblem::Cursor cur;
  entry_->max_param_for_budget_from_batch(0, from.data(), budget.data(), n,
                                          cur, tol.data());
  return tol;
}

std::vector<TimeNs> LatencyAnalyzer::tolerance_deltas(
    std::span<const double> percents) const {
  std::vector<TimeNs> tol = tolerances(percents);
  for (TimeNs& t : tol) {
    if (std::isfinite(t)) t -= params_.L;
  }
  return tol;
}

TimeNs LatencyAnalyzer::tolerance(double percent) const {
  return tolerances({&percent, 1})[0];
}

TimeNs LatencyAnalyzer::tolerance_delta(double percent) const {
  return tolerance_deltas({&percent, 1})[0];
}

std::vector<TimeNs> LatencyAnalyzer::critical_latencies_algorithm2(
    TimeNs lo, TimeNs hi, double step) const {
  return entry_->critical_values_algorithm2(0, lo, hi, step);
}

double LatencyAnalyzer::lambda_G() const {
  // LatencyParamSpace folds G·(bytes − 1) into each edge's constant, so
  // G's coefficients are integers: summed sink -> source along the base
  // solve's critical path, exactly like the dense solve's chain walk sums
  // a two-parameter lowering's gradient, they give ∂T/∂G bit for bit.  A
  // warm read is one anchor scan plus this walk.
  lp::LoweredProblem::Cursor cur;
  const auto anchor = entry_->anchor(0, params_.L, cur);
  const graph::Graph& g = solver().graph();
  const std::vector<std::uint32_t>& edge_of = g.topo_slots().edge;
  double lambda = 0.0;
  for (auto j = anchor->chain.rbegin(); j != anchor->chain.rend(); ++j) {
    const std::uint64_t bytes = g.edge(edge_of[*j]).bytes;
    if (bytes > 1) lambda += static_cast<double>(bytes - 1);
  }
  return lambda;
}

std::vector<LatencyAnalyzer::SweepPoint> LatencyAnalyzer::sweep(
    const std::vector<TimeNs>& delta_Ls, int threads) const {
  // Validate the whole grid before any worker thread exists, so bad input
  // raises a clean Error on the calling thread instead of depending on
  // exception propagation out of the workers.
  for (const TimeNs d : delta_Ls) {
    if (d < 0.0) throw Error("sweep: negative latency injection");
    if (!std::isfinite(d)) {
      throw Error(
          strformat("sweep: latency injection must be finite (got %g)", d));
    }
  }
  const std::size_t n = delta_Ls.size();
  std::vector<SweepPoint> out(n);
  if (n == 0) return out;
  // Every point is served through the entry: anchor replay when a
  // published stability zone covers it, a dense solve (which publishes its
  // anchor) otherwise.  Replay is bitwise identical to a dense solve, so
  // the bytes cannot depend on what the cache held beforehand, on the
  // grid's order, or on the thread count.
  const int nworkers = effective_threads(n, threads);
  std::vector<lp::LoweredProblem::Cursor> curs(
      static_cast<std::size_t>(nworkers));
  parallel_for_workers(n, threads, [&](int w, std::size_t i) {
    const double x = params_.L + delta_Ls[i];
    lp::LoweredProblem::BatchPoint ev;
    entry_->eval_batch(0, &x, 1, curs[static_cast<std::size_t>(w)], &ev);
    out[i] = {delta_Ls[i], ev.value, ev.slope,
              ev.value > 0.0 ? x * ev.slope / ev.value : 0.0};
  });
  return out;
}

}  // namespace llamp::core
