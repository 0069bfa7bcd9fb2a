#include "stoch/mc.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>

#include "core/analyzer.hpp"
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
  // Shared by both paths: every pass rewrites the rows it reads.
  lp::LoweredProblem::Cursor cur;
  // General path: one sample at a time, on the worker's own latency
  // lowering, re-lowered in place at every sample's draws.
  std::optional<lp::LoweredProblem> prob;
  std::vector<double> factors;  ///< by edge id; 1.0 where never drawn
  std::vector<double> xs;
  std::vector<lp::LoweredProblem::SweepEval> evals;
  // Batched fast path: one kBatchWidth-wide lane group of samples.
  std::vector<lp::LoweredProblem::BatchPoint> pts;
  std::vector<double> lane_L;       ///< the group's sampled L draws
  std::vector<double> lane_xs;      ///< lane evaluation points, one ΔL at a time
  // The group's pooled band searches, band-major: search b * lanes + l is
  // band b of lane l, opening from the lane's ΔL[0] point and pass.
  std::vector<double> band_from;
  std::vector<lp::LoweredProblem::BatchPoint> band_at;
  std::vector<double> band_budget;
  std::vector<double> band_tol;
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

namespace {

/// run_mc with an optional cached lowering and, when that lowering is a
/// solver-cache entry's, the entry itself: the fast path's band searches
/// then read through the entry's tolerance memo.
McResult run(const graph::Graph& g, const loggops::Params& base,
             const McSpec& spec,
             std::shared_ptr<const lp::LoweredProblem> lowered,
             core::SolverCache::Entry* entry) {
  spec.validate();
  base.validate();

  const std::size_t npts = spec.delta_Ls.size();
  const std::size_t nbands = spec.band_percents.size();

  // Fast path: when o, G, and the edge noise are all degenerate, every
  // sample analyzes the same parametric LP and only the evaluation point
  // (the sampled L) moves — one problem, lowered once, serves every worker,
  // and a whole lane group of samples rides one batched forward pass per
  // ΔL point and one pooled lockstep search over all its bands.  Otherwise
  // each sample re-lowers its worker's problem at its own operating point
  // and edge factors, which is what the paper's "re-measure the operating
  // point and redo the analysis" amounts to.
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
    if (cached_space != nullptr && &lowered->graph() == &g &&
        cached_space->params() == shared_params) {
      shared = std::move(lowered);
    } else {
      shared = std::make_shared<const lp::LoweredProblem>(
          g, std::make_shared<lp::LatencyParamSpace>(shared_params));
      entry = nullptr;  // its memo keys belong to another problem
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
      s.band_from.resize(lp::kBatchWidth * nbands);
      s.band_at.resize(lp::kBatchWidth * nbands);
      s.band_budget.resize(lp::kBatchWidth * nbands);
      s.band_tol.resize(lp::kBatchWidth * nbands);
    } else {
      s.factors.assign(g.num_edges(), 1.0);
      s.xs.resize(npts);
      s.evals.resize(npts);
    }
  }

  const std::span<const graph::Edge> edges = g.edges();
  const bool skip_free = spec.noise.factors_finite();

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
        // Steady state: one batched pass per ΔL grid point and one pooled
        // search over every band, all against preallocated lane scratch.
        // ΔL[0]'s pass is the ranged one: it supplies the runtime, λ_L,
        // ρ_L and the first iterate of every band search.
        for (std::size_t k = 0; k < npts; ++k) {
          for (std::size_t l = 0; l < lanes; ++l) {
            sc.lane_xs[l] = sc.lane_L[l] + spec.delta_Ls[k];
          }
          if (k == 0) {
            shared->solve_batch_ranges(0, sc.lane_xs.data(), lanes, sc.cur,
                                       sc.pts.data());
          } else {
            shared->solve_batch(0, sc.lane_xs.data(), lanes, sc.cur,
                                sc.pts.data());
          }
          for (std::size_t l = 0; l < lanes; ++l) {
            buffer[(g0 + l) * stride + k] = sc.pts[l].value;
          }
          if (k == 0) {
            for (std::size_t l = 0; l < lanes; ++l) {
              double* out = buffer.data() + (g0 + l) * stride;
              const lp::LoweredProblem::BatchPoint& pt = sc.pts[l];
              (void)core::finite_base_runtime(pt.value);
              out[npts] = pt.slope;
              out[npts + 1] =
                  pt.value > 0.0 ? sc.lane_xs[l] * pt.slope / pt.value : 0.0;
              for (std::size_t b = 0; b < nbands; ++b) {
                const std::size_t slot = b * lanes + l;
                sc.band_from[slot] = sc.lane_xs[l];
                sc.band_at[slot] = pt;
                sc.band_budget[slot] =
                    pt.value * (1.0 + spec.band_percents[b] / 100.0);
              }
            }
          }
        }
        // A LatencyParamSpace has integer coefficients, so the entry's
        // memo hits are the pooled search's own bits.
        if (entry != nullptr) {
          entry->max_param_for_budget_from_batch(
              0, sc.band_from.data(), sc.band_budget.data(), nbands * lanes,
              sc.cur, sc.band_tol.data(), sc.band_at.data());
        } else {
          shared->max_param_for_budget_from_batch(
              0, sc.band_from.data(), sc.band_budget.data(), nbands * lanes,
              sc.cur, sc.band_tol.data(), sc.band_at.data());
        }
        for (std::size_t b = 0; b < nbands; ++b) {
          for (std::size_t l = 0; l < lanes; ++l) {
            const std::size_t slot = b * lanes + l;
            const double tol = sc.band_tol[slot];
            buffer[(g0 + l) * stride + npts + 2 + b] =
                std::isfinite(tol) ? tol - sc.band_from[slot] : tol;
          }
        }
        // llamp-lint: hot-path end
      });
      fold_block(bn);
      continue;
    }
    // The general path: each sample re-lowers its worker's problem at its
    // own operating point and edge factors, so samples cannot share a
    // batch pass.  Per-sample cost is imbalanced (the drawn operating
    // point reshapes every solve); workers claim samples one at a time, so
    // one that drew expensive samples simply claims fewer.
    parallel_for_workers(bn, spec.threads, [&](int w, std::size_t j) {
      WorkerScratch& sc = scratch[static_cast<std::size_t>(w)];
      if (!sc.prob) sc.prob.emplace(g, base);  // once per worker and run
      lp::LoweredProblem& prob = *sc.prob;
      // llamp-lint: hot-path begin
      // Steady state: the draws, the re-lowering and every evaluation run
      // against the worker's problem and preallocated scratch.
      const std::size_t i = block_start + j;
      Rng rng(sample_seed(spec.seed, i));

      // Fixed in-sample draw order: L, o, G, then edge factors by edge id.
      loggops::Params p = base;
      p.L = spec.L.sample(rng, base.L);
      p.o = spec.o.sample(rng, base.o);
      p.G = spec.G.sample(rng, base.G);
      if (!spec.noise.degenerate()) {
        // An edge that carries no cost keeps its zero row whatever its
        // factor, so its draw only advances the stream; its factor stays
        // the 1.0 set up above.  Only finite factors may be skipped: a
        // non-finite one anywhere is the re-lowering's error.
        for (std::size_t e = 0; e < edges.size(); ++e) {
          if (skip_free && lp::carries_no_cost(edges[e])) {
            spec.noise.skip(rng);
          } else {
            sc.factors[e] = spec.noise.factor(rng);
          }
        }
      }
      prob.relower(p, sc.factors);

      // xs[0] is solved once: its solution gives the runtime, λ_L, ρ_L and
      // every band search's first iterate.  The searches stay single-lane,
      // opened from dense solves: on a perturbed lowering a pass's forward
      // slope may differ from the chain-walk gradient in the last bits
      // (non-integer coefficients summed in the opposite order), so a
      // batched search could move a tolerance.
      for (std::size_t k = 0; k < npts; ++k) {
        sc.xs[k] = p.L + spec.delta_Ls[k];
      }
      const lp::LoweredProblem::BatchPoint at0 =
          prob.solve(0, sc.xs[0], sc.cur).point();
      (void)core::finite_base_runtime(at0.value);
      prob.sweep(0, std::span<const double>(sc.xs).subspan(1), sc.cur,
                 sc.evals.data() + 1);

      double* out = buffer.data() + j * stride;
      out[0] = at0.value;
      for (std::size_t k = 1; k < npts; ++k) out[k] = sc.evals[k].value;
      out[npts] = at0.slope;
      out[npts + 1] =
          at0.value > 0.0 ? sc.xs[0] * at0.slope / at0.value : 0.0;
      for (std::size_t b = 0; b < nbands; ++b) {
        const double budget =
            at0.value * (1.0 + spec.band_percents[b] / 100.0);
        const double tol =
            prob.max_param_for_budget_from(0, sc.xs[0], budget, at0, sc.cur);
        out[npts + 2 + b] = std::isfinite(tol) ? tol - sc.xs[0] : tol;
      }
      // llamp-lint: hot-path end
    });
    fold_block(bn);
  }
  return res;
}

}  // namespace

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec) {
  return run(g, base, spec, nullptr, nullptr);
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                std::shared_ptr<const lp::LoweredProblem> lowered) {
  return run(g, base, spec, std::move(lowered), nullptr);
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                const std::shared_ptr<core::SolverCache::Entry>& entry) {
  return run(g, base, spec, entry ? entry->problem() : nullptr, entry.get());
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
