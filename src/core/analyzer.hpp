#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/solver_cache.hpp"
#include "graph/graph.hpp"
#include "loggops/params.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"

namespace llamp::core {

/// `runtime` if it is finite; otherwise the one analysis error (Error, exit
/// 1) that every op raises when a scenario's base runtime overflows, say
/// under a 1e308 latency, wire latency or switch delay.
double finite_base_runtime(double runtime);

/// LLAMP's primary user-facing interface: network latency sensitivity and
/// tolerance analysis of one execution graph under a LogGPS configuration.
///
/// All latency arguments are expressed as injected deltas ΔL over the
/// measured base latency (the x-axis of Figs. 1, 9, 10) unless the name
/// says otherwise.
class LatencyAnalyzer {
 public:
  /// Standalone form: the analyzer owns a private SolverCache, so it runs
  /// the very code path of the warm form below with a cache that starts
  /// empty and dies with the analyzer.
  LatencyAnalyzer(const graph::Graph& g, loggops::Params p);
  /// Warm-starting form (the api::Engine path): the lowerings, anchors and
  /// memos are shared through the session `cache` under (key, p), so
  /// repeated and nearby requests replay or look up instead of
  /// re-solving.  `g` MUST be the graph cached under `key`, and `cache`
  /// must outlive the analyzer.  Every number produced is bitwise
  /// identical to the standalone form's — the cache can never change
  /// bytes, only time.
  LatencyAnalyzer(const graph::Graph& g, loggops::Params p,
                  SolverCache& cache, const GraphKey& key);
  /// The analyzer keeps a reference; a temporary graph would dangle.
  LatencyAnalyzer(graph::Graph&&, loggops::Params) = delete;
  LatencyAnalyzer(graph::Graph&&, loggops::Params, SolverCache&,
                  const GraphKey&) = delete;

  const loggops::Params& params() const { return params_; }

  /// Forecast runtime at base latency + delta_L (Fig. 9 top panels).
  TimeNs predict_runtime(TimeNs delta_L = 0.0) const;

  /// Runtime at the measured base latency (the 0-injection point); the
  /// constructors raise finite_base_runtime's error when it overflows.
  TimeNs base_runtime() const { return base_runtime_; }

  /// Latency sensitivity λ_L = ∂T/∂L at the given injection (Fig. 9 bottom
  /// panels): the number of latency units on the critical path.
  double lambda_L(TimeNs delta_L = 0.0) const;

  /// L ratio: the fraction of critical-path time attributable to network
  /// latency, (L·λ_L)/T at the given injection.  (§II-D1 prints the
  /// reciprocal in its defining formula, but the quantity it describes and
  /// plots — "what fraction of the critical path's execution time is due to
  /// network latency", axis 0..50% — is this fraction.)
  double rho_L(TimeNs delta_L = 0.0) const;

  /// x% L tolerance (§II-D2) of every band in `percents`: the largest
  /// *absolute* network latency L such that runtime stays within
  /// (1 + percent/100) of base_runtime(), +inf when latency never limits
  /// the program.  Every percent is checked before any search runs.  The
  /// bands then run as one pooled search from the base latency: one
  /// opening point, Newton rounds in lockstep, each band bitwise its
  /// one-band search and memoized under the same (from, budget) key.
  std::vector<TimeNs> tolerances(std::span<const double> percents) const;

  /// Same tolerances expressed as injections ΔL over the base latency.
  std::vector<TimeNs> tolerance_deltas(
      std::span<const double> percents) const;

  /// tolerances() of the one band `percent`.
  TimeNs tolerance(double percent) const;

  /// tolerance_deltas() of the one band `percent`.
  TimeNs tolerance_delta(double percent) const;

  /// The paper's Algorithm 2 scan (Appendix D) over absolute L in [lo, hi]
  /// at resolution `step`, served through the cache entry's memo.
  std::vector<TimeNs> critical_latencies_algorithm2(TimeNs lo, TimeNs hi,
                                                    double step) const;

  /// Bandwidth sensitivity λ_G = ∂T/∂G at the base configuration (§II-B1),
  /// read off the same LP as λ_L: the G coefficients (payload bytes − 1 on
  /// edges carrying more than one byte) summed along the critical path of
  /// the latency entry's anchor at the base L.  No second lowering.
  double lambda_G() const;

  /// One evaluated point of a latency sweep.
  struct SweepPoint {
    TimeNs delta_L = 0.0;
    TimeNs runtime = 0.0;
    double lambda_L = 0.0;
    double rho_L = 0.0;
  };

  /// Evaluate runtime/λ_L/ρ_L at many injections in parallel (the LP solves
  /// are independent, mirroring how the paper parallelizes its sweeps via
  /// the barrier method).  `threads` <= 0 uses the hardware concurrency.
  std::vector<SweepPoint> sweep(const std::vector<TimeNs>& delta_Ls,
                                int threads = 0) const;

  /// The latency entry's lowered problem, for direct (uncached) queries.
  const lp::LoweredProblem& solver() const { return *entry_->problem(); }

  /// The latency entry itself, for runs that share it (a campaign's mc).
  const std::shared_ptr<SolverCache::Entry>& entry() const { return entry_; }

 private:
  LatencyAnalyzer(const graph::Graph& g, loggops::Params p,
                  std::unique_ptr<SolverCache> own_cache, SolverCache* cache,
                  const GraphKey& key);
  /// T and λ at absolute latency x: a one-lane read of the entry.
  lp::LoweredProblem::BatchPoint eval(double x) const;

  loggops::Params params_;
  /// The standalone form's private cache; null for the warm form.
  std::unique_ptr<SolverCache> own_cache_;
  /// The latency entry (lowering, anchors, memos) under (key, params_).
  std::shared_ptr<SolverCache::Entry> entry_;
  TimeNs base_runtime_ = 0.0;
};

}  // namespace llamp::core
