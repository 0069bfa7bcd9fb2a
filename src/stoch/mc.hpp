#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/solver_cache.hpp"
#include "graph/graph.hpp"
#include "loggops/params.hpp"
#include "stoch/distribution.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace llamp::stoch {

/// Monte Carlo uncertainty quantification over the LP analysis: run N
/// perturbed solves of one execution graph — each sample drawing its own
/// LogGPS operating point and (optionally) per-edge cost noise — and stream
/// the per-sample metrics into O(1)-memory summaries.  The output is the
/// distributional version of the deterministic tolerance report: runtime
/// quantiles per ΔL injection, λ_L / ρ_L spread, and tolerance bands with
/// confidence intervals instead of point estimates.
///
/// Determinism contract (DESIGN.md §4c): sample i draws from
/// Rng(sample_seed(seed, i)) with a fixed in-sample draw order (L, o, G,
/// then edge factors in edge-id order; an edge that carries no cost
/// advances the stream past its factor without computing it), each worker
/// re-lowers its one problem in place to exactly the sample's own costs,
/// and metrics are reduced into the summaries in ascending sample order
/// whatever the thread count — so the result (and every emitted byte)
/// depends only on (spec, graph), never on --threads.  With samples == 1 and all-degenerate distributions the run
/// reproduces the deterministic analyzer's numbers bitwise.
struct McSpec {
  Distribution L;  ///< absolute network latency [ns]
  Distribution o;  ///< per-message CPU overhead [ns]
  Distribution G;  ///< gap per byte [ns/byte]
  EdgeNoise noise; ///< per-edge multiplicative cost noise

  int samples = 256;
  std::uint64_t seed = 42;
  int threads = 0;  ///< sample parallelism; <= 0 = hardware concurrency

  /// Injection grid: runtime is summarized at every ΔL; λ_L, ρ_L, and the
  /// tolerance bands are evaluated at the first grid point (0 in every CLI
  /// grid).  Must be non-empty with finite entries >= 0.
  std::vector<TimeNs> delta_Ls = {0.0};
  std::vector<double> band_percents = {1.0, 2.0, 5.0};

  /// Throws UsageError on malformed specs (samples < 1, bad distributions,
  /// bad grid).
  void validate() const;
};

/// Streaming summary of one scalar metric across the sample stream:
/// Welford mean/variance plus three P² quantile sketches (5th / 50th /
/// 95th percentile), all O(1) in the sample count.  Non-finite
/// observations (unbounded tolerances) are counted separately — the
/// moments and quantiles summarize the finite samples.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return stats_.count(); }   ///< finite samples
  std::size_t unbounded() const { return unbounded_; }
  double mean() const { return stats_.mean(); }
  double stddev() const { return stats_.stddev(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double q05() const { return q05_.value(); }
  double median() const { return q50_.value(); }
  double q95() const { return q95_.value(); }

 private:
  RunningStats stats_;
  P2Quantile q05_{0.05};
  P2Quantile q50_{0.50};
  P2Quantile q95_{0.95};
  std::size_t unbounded_ = 0;
};

struct McResult {
  loggops::Params base;             ///< the deterministic operating point
  int samples = 0;
  /// Provenance of the evaluation path: whether the run took the L-only
  /// fast path, and the batched kernel's lane width (lp::kBatchWidth,
  /// recorded even for general-path runs so emitted configs are
  /// self-describing).
  bool batched = false;
  int batch_width = 0;
  std::vector<TimeNs> delta_Ls;
  std::vector<Summary> runtime;     ///< aligned with delta_Ls
  Summary lambda_L;                 ///< at the first grid point
  Summary rho_L;                    ///< at the first grid point
  struct Band {
    double percent = 0.0;
    Summary tolerance_delta;        ///< ΔL tolerance; +inf samples counted
  };
  std::vector<Band> bands;          ///< aligned with spec.band_percents
};

/// The LogGPS operating point all samples share when the spec's o, G, and
/// edge-noise distributions are degenerate — then only the sampled L moves
/// and one parametric LP serves every sample.  Returns `base` with o and G
/// pinned to their (fixed) degenerate draws, or nullopt when samples
/// differ structurally (each re-lowers its worker's problem at its own
/// draws).  This is the exact operating point run_mc's fast path
/// analyzes; a caller holding a solver cache can pre-lower it and pass the
/// entry to run_mc below.
std::optional<loggops::Params> shared_operating_point(
    const McSpec& spec, const loggops::Params& base);

/// Run the Monte Carlo analysis of `g` around the operating point `base`.
/// `base` supplies every value the spec's distributions pin to it (kBase /
/// kRelNormal) and the non-sampled LogGPS components (g, O, S).
///
/// The L-only fast path always runs through a solver-cache entry: its
/// runtime points are replayed from the entry's anchors (Entry::eval_batch)
/// and its band searches read through the entry's tolerance memo
/// (Entry::max_param_for_budget_from_batch), so a repeated request runs no
/// forward pass.  The entry is `entry` when it checks out — lowered (a
/// latency() handle), over this very `g`, at *shared_operating_point(spec,
/// base) — and otherwise a run-local cache's, which starts empty and dies
/// with the run.  Every overload gives the same bytes whatever the entry
/// holds: a wrong handle can cost time, never change bytes.
McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec);
McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                const std::shared_ptr<core::SolverCache::Entry>& entry);
/// Same as the no-entry form: `lowered` is not read.  Kept only for
/// perfbench's layer walk until it passes the entry (ROADMAP item 15).
McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                std::shared_ptr<const lp::LoweredProblem> lowered);

/// The distributional report as a table: one row per metric — runtime at
/// every ΔL, λ_L, ρ_L, one tolerance band per percent — with streaming
/// summary columns.  `human` selects report formatting (adaptive units);
/// otherwise the numeric CSV/JSON schema (metric, n, unbounded, mean,
/// stddev, min, q05, median, q95, max).  Cells of an all-unbounded metric
/// render as "unbounded".
Table mc_summary_table(const McResult& result, bool human);

}  // namespace llamp::stoch
