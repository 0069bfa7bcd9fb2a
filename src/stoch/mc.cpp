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
  std::vector<lp::LoweredProblem::BatchPoint> band_at;  ///< ΔL[0] per band
  // Both paths: the evaluation points and their evaluations, ΔL-major
  // (point k * lanes + l is lane l at ΔL[k]; the general path has one
  // lane, the fast path one kBatchWidth-wide lane group of samples).
  std::vector<double> lane_xs;
  std::vector<lp::LoweredProblem::BatchPoint> pts;
  std::vector<double> lane_L;  ///< fast path: the group's sampled L draws
  // The pooled band searches, lane-major: search l * nbands + b is band b
  // of lane l, opening from the lane's ΔL[0] point (so a lane's searches
  // sit side by side and share one opening point).
  std::vector<double> band_from;
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

/// run_mc through `entry` when it is this run's solver-cache entry: the
/// fast path's points then go through its anchors and its band searches
/// through its memo.  Any other entry (or none) is replaced by a run-local
/// cache's entry, so a stale handle can cost time, never bytes.
McResult run(const graph::Graph& g, const loggops::Params& base,
             const McSpec& spec, core::SolverCache::Entry* entry) {
  spec.validate();
  base.validate();

  const std::size_t npts = spec.delta_Ls.size();
  const std::size_t nbands = spec.band_percents.size();

  // Fast path: when o, G, and the edge noise are all degenerate, every
  // sample analyzes the same parametric LP and only the evaluation point
  // (the sampled L) moves — one entry serves every worker, and a whole
  // lane group of samples rides one eval_batch over every ΔL point and one
  // pooled lockstep search over all its bands.  Otherwise each sample
  // re-lowers its worker's problem at its own operating point and edge
  // factors, which is what the paper's "re-measure the operating point and
  // redo the analysis" amounts to; its ΔL points share one lockstep pass,
  // its bands one pooled search.
  const std::optional<loggops::Params> shared_point =
      shared_operating_point(spec, base);
  const bool batched = shared_point.has_value();

  std::optional<core::SolverCache> own;
  if (batched) {
    shared_point->validate();
    // Adopt the caller's entry only if it is verifiably this run's
    // problem: lowered, over the same graph object, at the exact shared
    // operating point.  Otherwise the run lowers into a cache of its own.
    const lp::LoweredProblem* prob =
        entry != nullptr ? entry->problem().get() : nullptr;
    if (prob == nullptr || &prob->graph() != &g ||
        prob->space().params() != *shared_point) {
      entry = own.emplace().latency(core::GraphKey{}, g, *shared_point).get();
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
  const std::size_t width = batched ? lp::kBatchWidth : 1;
  for (WorkerScratch& s : scratch) {
    s.pts.resize(width * npts);
    s.lane_xs.resize(width * npts);
    s.band_from.resize(width * nbands);
    s.band_budget.resize(width * nbands);
    s.band_tol.resize(width * nbands);
    if (batched) {
      s.lane_L.resize(lp::kBatchWidth);
    } else {
      s.factors.assign(g.num_edges(), 1.0);
      s.band_at.resize(nbands);
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
        // Steady state: every (lane, ΔL) point and one pooled search over
        // every band, all against preallocated lane scratch.  ΔL[0]'s
        // points supply the runtime, λ_L, ρ_L and the first iterate of
        // every band search.
        for (std::size_t k = 0; k < npts; ++k) {
          for (std::size_t l = 0; l < lanes; ++l) {
            sc.lane_xs[k * lanes + l] = sc.lane_L[l] + spec.delta_Ls[k];
          }
        }
        // Replayed where the entry's anchors cover, batched past its
        // budget: the batched pass's bits either way (Entry::eval_batch).
        entry->eval_batch(0, sc.lane_xs.data(), npts * lanes, sc.cur,
                          sc.pts.data());
        for (std::size_t l = 0; l < lanes; ++l) {
          double* out = buffer.data() + (g0 + l) * stride;
          for (std::size_t k = 0; k < npts; ++k) {
            out[k] = sc.pts[k * lanes + l].value;
          }
          const lp::LoweredProblem::BatchPoint& pt = sc.pts[l];
          (void)core::finite_base_runtime(pt.value);
          out[npts] = pt.slope;
          out[npts + 1] =
              pt.value > 0.0 ? sc.lane_xs[l] * pt.slope / pt.value : 0.0;
          for (std::size_t b = 0; b < nbands; ++b) {
            const std::size_t slot = l * nbands + b;
            sc.band_from[slot] = sc.lane_xs[l];
            sc.band_budget[slot] =
                pt.value * (1.0 + spec.band_percents[b] / 100.0);
          }
        }
        // The entry's memo hits are the pooled search's own bits, and its
        // misses open with one point per lane (the lane's bands share a
        // `from`).
        entry->max_param_for_budget_from_batch(
            0, sc.band_from.data(), sc.band_budget.data(), nbands * lanes,
            sc.cur, sc.band_tol.data());
        for (std::size_t slot = 0; slot < nbands * lanes; ++slot) {
          const double tol = sc.band_tol[slot];
          buffer[(g0 + slot / nbands) * stride + npts + 2 + slot % nbands] =
              std::isfinite(tol) ? tol - sc.band_from[slot] : tol;
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

      // One pass over the ΔL grid gives every runtime, and its ΔL[0] lane
      // the runtime, λ_L, ρ_L and every band search's opening point; the
      // bands then run as one pooled lockstep search.  Both take slopes
      // re-walked along each lane's argmax chain, so on this perturbed
      // lowering every number is still the dense solve's and the
      // single-lane search's, bit for bit.
      for (std::size_t k = 0; k < npts; ++k) {
        sc.lane_xs[k] = p.L + spec.delta_Ls[k];
      }
      prob.solve_batch_points(0, sc.lane_xs.data(), npts, sc.cur,
                              sc.pts.data());
      const lp::LoweredProblem::BatchPoint& at0 = sc.pts[0];
      const double x0 = sc.lane_xs[0];
      (void)core::finite_base_runtime(at0.value);

      double* out = buffer.data() + j * stride;
      for (std::size_t k = 0; k < npts; ++k) out[k] = sc.pts[k].value;
      out[npts] = at0.slope;
      out[npts + 1] = at0.value > 0.0 ? x0 * at0.slope / at0.value : 0.0;
      for (std::size_t b = 0; b < nbands; ++b) {
        sc.band_from[b] = x0;
        sc.band_budget[b] = at0.value * (1.0 + spec.band_percents[b] / 100.0);
        sc.band_at[b] = at0;
      }
      prob.max_param_for_budget_from_batch(
          0, sc.band_from.data(), sc.band_budget.data(), nbands, sc.cur,
          sc.band_tol.data(), sc.band_at.data());
      for (std::size_t b = 0; b < nbands; ++b) {
        const double tol = sc.band_tol[b];
        out[npts + 2 + b] = std::isfinite(tol) ? tol - x0 : tol;
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
  return run(g, base, spec, nullptr);
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                std::shared_ptr<const lp::LoweredProblem> /*lowered*/) {
  return run(g, base, spec, nullptr);
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                const std::shared_ptr<core::SolverCache::Entry>& entry) {
  return run(g, base, spec, entry.get());
}

namespace {

/// One summary row.  All-unbounded metrics (a tolerance no sample ever
/// hit) render their statistics cells as "unbounded" in every format, the
/// same word the deterministic report uses.
void add_summary_row(Table& t, const std::string& metric, const Summary& s,
                     bool human, bool time_valued) {
  const bool all_unbounded = s.count() == 0 && s.unbounded() > 0;
  const auto fmt = [&](double v) -> Table::Cell {
    if (all_unbounded) return "unbounded";
    if (human) {
      return time_valued ? human_time_ns(v) : strformat("%.3g", v);
    }
    return Table::Cell::general(v, 10);
  };
  t.add_row({metric, Table::Cell::integer(s.count()),
             Table::Cell::integer(s.unbounded()), fmt(s.mean()),
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
