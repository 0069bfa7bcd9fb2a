#include "stoch/mc.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>

#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace llamp::stoch {
namespace {

/// Reduction block size: samples are evaluated in blocks of at most this
/// many, their metric rows buffered by in-block index, then folded into the
/// streaming summaries in ascending sample order on the calling thread.
/// The buffer is the only N-independent-but-nonconstant state, so memory is
/// O(kBlock * metrics) whatever the sample count — and because sample i's
/// draws depend only on (seed, i) and the fold order is always 0..N-1, the
/// thread count can never change a single bit of the result.
constexpr std::size_t kBlock = 1024;

/// Per-worker scratch reused across every sample (or sample group) a
/// worker serves.
struct WorkerScratch {
  // General path: one sample at a time.
  lp::LoweredProblem::Cursor cur;
  std::vector<double> xs;
  std::vector<lp::LoweredProblem::SweepEval> evals;
  std::vector<double> factors;
  // Batched fast path: one kBatchWidth-wide lane group of samples.
  lp::LoweredProblem::BatchCursor bc;
  std::vector<lp::LoweredProblem::BatchPoint> pts;
  std::vector<double> lane_L;       ///< the group's sampled L draws
  std::vector<double> lane_xs;      ///< lane evaluation points, one ΔL at a time
  std::vector<double> lane_from;    ///< per-lane band-search anchor (ΔL[0])
  std::vector<double> lane_v0;      ///< per-lane T at ΔL[0]
  std::vector<double> lane_budget;
  std::vector<double> lane_tol;
};

}  // namespace

void McSpec::validate() const {
  if (samples < 1) {
    throw UsageError(strformat("mc: need samples >= 1 (got %d)", samples));
  }
  L.validate("L");
  o.validate("o");
  G.validate("G");
  noise.validate();
  if (delta_Ls.empty()) throw UsageError("mc: empty ΔL grid");
  for (const TimeNs d : delta_Ls) {
    if (!(d >= 0.0) || !std::isfinite(d)) {
      throw UsageError(strformat(
          "mc: ΔL grid values must be finite and >= 0 (got %g)", d));
    }
  }
  for (const double pct : band_percents) {
    if (!(pct >= 0.0) || !std::isfinite(pct)) {
      throw UsageError(strformat(
          "mc: tolerance band percent must be finite and >= 0 (got %g)",
          pct));
    }
  }
}

void Summary::add(double x) {
  if (!std::isfinite(x)) {
    ++unbounded_;
    return;
  }
  stats_.add(x);
  q05_.add(x);
  q50_.add(x);
  q95_.add(x);
}

std::optional<loggops::Params> shared_operating_point(
    const McSpec& spec, const loggops::Params& base) {
  if (!(spec.o.degenerate() && spec.G.degenerate() &&
        spec.noise.degenerate())) {
    return std::nullopt;
  }
  // Degenerate distributions return a fixed value whatever the generator
  // state, so the shared operating point can be read with a throwaway Rng
  // (same construction run_mc's samples use, so the bytes agree).
  Rng probe_rng(spec.seed);
  loggops::Params shared = base;
  shared.o = spec.o.sample(probe_rng, base.o);
  shared.G = spec.G.sample(probe_rng, base.G);
  return shared;
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec) {
  return run_mc(g, base, spec, nullptr);
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                std::shared_ptr<const lp::LoweredProblem> lowered) {
  spec.validate();
  base.validate();

  const std::size_t npts = spec.delta_Ls.size();
  const std::size_t nbands = spec.band_percents.size();
  bool ascending = true;
  for (std::size_t i = 1; i < npts; ++i) {
    if (spec.delta_Ls[i - 1] > spec.delta_Ls[i]) ascending = false;
  }

  // Fast path: when o, G, and the edge noise are all degenerate, every
  // sample analyzes the same parametric LP and only the evaluation point
  // (the sampled L) moves — one problem, lowered once, serves every worker,
  // and a whole lane group of samples rides one batched forward pass per
  // ΔL point (and one lockstep search per band).  Otherwise each sample
  // lowers its own perturbed space, which is what the paper's "re-measure
  // the operating point and redo the analysis" amounts to.
  const std::optional<loggops::Params> shared_point =
      shared_operating_point(spec, base);
  const bool batched = shared_point.has_value();

  std::shared_ptr<const lp::LoweredProblem> shared;
  if (batched) {
    const loggops::Params& shared_params = *shared_point;
    shared_params.validate();
    // Adopt the caller's cached lowering only if it is verifiably this
    // run's problem: same graph object and the exact shared operating
    // point.  A mismatched handle falls through to a fresh lowering, so a
    // stale cache entry can never change a byte of the result.
    const lp::LatencyParamSpace* cached_space =
        lowered ? dynamic_cast<const lp::LatencyParamSpace*>(
                      &lowered->space())
                : nullptr;
    const auto same_point = [&](const loggops::Params& cp) {
      return cp.L == shared_params.L && cp.o == shared_params.o &&
             cp.g == shared_params.g && cp.G == shared_params.G &&
             cp.O == shared_params.O && cp.S == shared_params.S;
    };
    if (cached_space != nullptr && &lowered->graph() == &g &&
        same_point(cached_space->params())) {
      shared = std::move(lowered);
    } else {
      shared = std::make_shared<const lp::LoweredProblem>(
          g, std::make_shared<lp::LatencyParamSpace>(shared_params));
    }
  }

  // One metric row per sample: runtime at every ΔL, then λ_L, ρ_L, then the
  // per-band ΔL tolerances.
  const std::size_t stride = npts + 2 + nbands;
  const std::size_t total = static_cast<std::size_t>(spec.samples);
  const std::size_t block = std::min(total, kBlock);
  std::vector<double> buffer(block * stride);

  const std::size_t ngroups =
      (block + lp::kBatchWidth - 1) / lp::kBatchWidth;
  const int nworkers =
      effective_threads(batched ? ngroups : block, spec.threads);
  std::vector<WorkerScratch> scratch(static_cast<std::size_t>(nworkers));
  for (WorkerScratch& s : scratch) {
    if (batched) {
      s.pts.resize(lp::kBatchWidth);
      s.lane_L.resize(lp::kBatchWidth);
      s.lane_xs.resize(lp::kBatchWidth);
      s.lane_from.resize(lp::kBatchWidth);
      s.lane_v0.resize(lp::kBatchWidth);
      s.lane_budget.resize(lp::kBatchWidth);
      s.lane_tol.resize(lp::kBatchWidth);
    } else {
      s.xs.resize(npts);
      s.evals.resize(npts);
    }
  }

  McResult res;
  res.base = base;
  res.samples = spec.samples;
  res.batched = batched;
  res.batch_width = static_cast<int>(lp::kBatchWidth);
  res.delta_Ls = spec.delta_Ls;
  res.runtime.resize(npts);
  res.bands.resize(nbands);
  for (std::size_t b = 0; b < nbands; ++b) {
    res.bands[b].percent = spec.band_percents[b];
  }

  // Ordered reduction: ascending sample index, metric-major within a
  // sample — the one place observations meet the streaming sketches, and
  // identical whichever evaluation path filled the buffer.
  const auto fold_block = [&](std::size_t bn) {
    for (std::size_t j = 0; j < bn; ++j) {
      const double* row = buffer.data() + j * stride;
      for (std::size_t k = 0; k < npts; ++k) res.runtime[k].add(row[k]);
      res.lambda_L.add(row[npts]);
      res.rho_L.add(row[npts + 1]);
      for (std::size_t b = 0; b < nbands; ++b) {
        res.bands[b].tolerance_delta.add(row[npts + 2 + b]);
      }
    }
  };

  for (std::size_t block_start = 0; block_start < total;
       block_start += block) {
    const std::size_t bn = std::min(block, total - block_start);
    if (batched) {
      const std::size_t groups = (bn + lp::kBatchWidth - 1) / lp::kBatchWidth;
      parallel_for_workers(groups, spec.threads, [&](int w, std::size_t gi) {
        WorkerScratch& sc = scratch[static_cast<std::size_t>(w)];
        const std::size_t g0 = gi * lp::kBatchWidth;
        const std::size_t lanes = std::min(lp::kBatchWidth, bn - g0);
        // Per-lane draws: sample i's Rng and draw order are exactly the
        // general path's, and L is its first draw — o/G are degenerate
        // here, pinned in the shared operating point.
        for (std::size_t l = 0; l < lanes; ++l) {
          Rng rng(sample_seed(spec.seed, block_start + g0 + l));
          sc.lane_L[l] = spec.L.sample(rng, base.L);
        }
        // llamp-lint: hot-path begin
        // Steady state: one batched pass per ΔL grid point, one lockstep
        // band search per percent, all against preallocated lane scratch.
        for (std::size_t k = 0; k < npts; ++k) {
          for (std::size_t l = 0; l < lanes; ++l) {
            sc.lane_xs[l] = sc.lane_L[l] + spec.delta_Ls[k];
          }
          shared->solve_batch(0, sc.lane_xs.data(), lanes, sc.bc,
                              sc.pts.data());
          for (std::size_t l = 0; l < lanes; ++l) {
            buffer[(g0 + l) * stride + k] = sc.pts[l].value;
          }
          if (k == 0) {
            for (std::size_t l = 0; l < lanes; ++l) {
              double* out = buffer.data() + (g0 + l) * stride;
              sc.lane_from[l] = sc.lane_xs[l];
              sc.lane_v0[l] = sc.pts[l].value;
              const double lambda0 = sc.pts[l].slope;
              out[npts] = lambda0;
              out[npts + 1] = sc.pts[l].value > 0.0
                                  ? sc.lane_xs[l] * lambda0 / sc.pts[l].value
                                  : 0.0;
            }
          }
        }
        for (std::size_t b = 0; b < nbands; ++b) {
          for (std::size_t l = 0; l < lanes; ++l) {
            sc.lane_budget[l] =
                sc.lane_v0[l] * (1.0 + spec.band_percents[b] / 100.0);
          }
          shared->max_param_for_budget_from_batch(
              0, sc.lane_from.data(), sc.lane_budget.data(), lanes, sc.bc,
              sc.lane_tol.data());
          for (std::size_t l = 0; l < lanes; ++l) {
            const double tol = sc.lane_tol[l];
            buffer[(g0 + l) * stride + npts + 2 + b] =
                std::isfinite(tol) ? tol - sc.lane_from[l] : tol;
          }
        }
        // llamp-lint: hot-path end
      });
      fold_block(bn);
      continue;
    }
    // The general path: each sample lowers its own perturbed space, so
    // samples cannot share a batch pass.  Per-sample cost is imbalanced
    // (the drawn operating point reshapes every solve), so samples are
    // claimed by chunked self-scheduling rather than static striding — a
    // worker that drew expensive samples simply claims fewer.
    parallel_for_workers_chunked(bn, spec.threads, 1, [&](int w,
                                                          std::size_t j) {
      WorkerScratch& sc = scratch[static_cast<std::size_t>(w)];
      const std::size_t i = block_start + j;
      Rng rng(sample_seed(spec.seed, i));

      // Fixed in-sample draw order: L, o, G, then edge factors by edge id.
      loggops::Params p = base;
      p.L = spec.L.sample(rng, base.L);
      p.o = spec.o.sample(rng, base.o);
      p.G = spec.G.sample(rng, base.G);

      std::shared_ptr<const lp::ParamSpace> sp =
          std::make_shared<lp::LatencyParamSpace>(p);
      if (!spec.noise.degenerate()) {
        sc.factors.resize(g.num_edges());
        for (double& f : sc.factors) f = spec.noise.factor(rng);
        sp = std::make_shared<lp::PerturbedParamSpace>(std::move(sp),
                                                       sc.factors);
      }
      const lp::LoweredProblem prob(g, std::move(sp));

      // llamp-lint: hot-path begin
      // Steady state: every per-sample evaluation below runs against
      // preallocated per-worker scratch; only the perturbed-space setup
      // above may allocate.
      for (std::size_t k = 0; k < npts; ++k) {
        sc.xs[k] = p.L + spec.delta_Ls[k];
      }
      if (ascending) {
        prob.sweep(0, sc.xs, sc.cur, sc.evals.data());
      } else {
        for (std::size_t k = 0; k < npts; ++k) {
          const auto& sol = prob.solve(0, sc.xs[k], sc.cur);
          sc.evals[k] = {sc.xs[k], sol.value, sol.gradient[0]};
        }
      }

      double* out = buffer.data() + j * stride;
      for (std::size_t k = 0; k < npts; ++k) out[k] = sc.evals[k].value;
      const double value0 = sc.evals[0].value;
      const double lambda0 = sc.evals[0].slope;
      out[npts] = lambda0;
      out[npts + 1] = value0 > 0.0 ? sc.xs[0] * lambda0 / value0 : 0.0;
      for (std::size_t b = 0; b < nbands; ++b) {
        const double budget =
            value0 * (1.0 + spec.band_percents[b] / 100.0);
        const double tol =
            prob.max_param_for_budget_from(0, sc.xs[0], budget, sc.cur);
        out[npts + 2 + b] = std::isfinite(tol) ? tol - sc.xs[0] : tol;
      }
      // llamp-lint: hot-path end
    });
    fold_block(bn);
  }
  return res;
}

namespace {

/// One summary row.  All-unbounded metrics (a tolerance no sample ever
/// hit) render their statistics cells as "unbounded" in every format, the
/// same word the deterministic report uses.
void add_summary_row(Table& t, const std::string& metric, const Summary& s,
                     bool human, bool time_valued) {
  const bool all_unbounded = s.count() == 0 && s.unbounded() > 0;
  const auto fmt = [&](double v) -> std::string {
    if (all_unbounded) return "unbounded";
    if (human) {
      return time_valued ? human_time_ns(v) : strformat("%.3g", v);
    }
    return strformat("%.10g", v);
  };
  t.add_row({metric, strformat("%zu", s.count()),
             strformat("%zu", s.unbounded()), fmt(s.mean()),
             fmt(s.stddev()), fmt(s.min()), fmt(s.q05()), fmt(s.median()),
             fmt(s.q95()), fmt(s.max())});
}

}  // namespace

Table mc_summary_table(const McResult& result, bool human) {
  // The same column set serves every format; only cell formatting differs.
  Table t({"metric", "n", "unbounded", "mean", "stddev", "min", "q05",
           "median", "q95", "max"});
  for (std::size_t k = 0; k < result.runtime.size(); ++k) {
    const std::string metric =
        human ? "T(ΔL=" + human_time_ns(result.delta_Ls[k]) + ")"
              : strformat("runtime_ns[dl=%.1f]", result.delta_Ls[k]);
    add_summary_row(t, metric, result.runtime[k], human,
                    /*time_valued=*/true);
  }
  add_summary_row(t, human ? "lambda_L" : "lambda_l", result.lambda_L, human,
                  /*time_valued=*/false);
  add_summary_row(t, human ? "rho_L" : "rho_l", result.rho_L, human,
                  /*time_valued=*/false);
  for (const auto& band : result.bands) {
    const std::string metric =
        human ? strformat("tol %g%%", band.percent)
              : strformat("tolerance_delta_ns[%g%%]", band.percent);
    add_summary_row(t, metric, band.tolerance_delta, human,
                    /*time_valued=*/true);
  }
  return t;
}

}  // namespace llamp::stoch
