#include "lp/parametric.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

// The batched sample-axis kernel (DESIGN.md §4f).  One pass over the
// topo-permuted adjacency evaluates W parameter points at once: every
// per-vertex accumulator becomes a W-lane row (structure-of-arrays over the
// sample axis), every scalar operation of forward_pass() becomes a stride-1
// lane loop performing the *same* floating-point operations in the *same*
// order per lane — which is what makes the results bitwise identical to W
// independent solve() calls rather than merely close.
//
// Determinism notes, load-bearing for the bitwise contract pinned by
// test_solver_hotpath.cpp:
//
//  * This translation unit is compiled with -ffp-contract=off (see
//    CMakeLists.txt): the scalar pass is built for the generic baseline ISA
//    where `c + s*x` is a multiply then an add, so the vectorized build of
//    this file must not fuse them into an FMA.
//  * The scalar pass's two "skip the winner" branches (the candidate
//    envelope sweep and the sink envelope sweep) are pure no-ops when taken
//    unconditionally: the winner's own row has dv == 0 and ds == 0 exactly
//    (it was copied from the same doubles), so constrain() tightens
//    nothing.  The kernel therefore constrains every row branchlessly; a
//    ds == 0 division yields inf/NaN which the blend discards before it can
//    reach dlo/dhi.
//  * The reported slope is accumulated *forward* along the argmax path,
//    while the scalar Solution.gradient[active] re-sums the critical path
//    in reverse chain order.  Every first-party space lowers integer-valued
//    coefficients (message counts, byte counts), so both sums are exact and
//    order-independent — the equivalence wall pins this across all
//    registered apps and both lowerings.
// GCC fully unrolls constant-trip lane loops at -O3 and then only
// SLP-vectorizes fragments of the unrolled body; the simd pragma makes the
// loop vectorizer handle each lane loop as a loop (compiled with
// -fopenmp-simd: annotations only, no OpenMP runtime).  Element order and
// per-lane operation order are unchanged, so the bitwise contract holds.
#if defined(__GNUC__)
#define LLAMP_SIMD _Pragma("omp simd")
#else
#define LLAMP_SIMD
#endif

namespace llamp::lp {

namespace {
constexpr double kInfD = std::numeric_limits<double>::infinity();

using detail::value_eps;

/// W-lane edge cost under the flat lowering: (cst[j] + slp[j] * x_lane,
/// slp[j]) — the lane loop over one slot's two contiguous loads.
template <std::size_t W>
struct FlatLaneCost {
  const double* cst;  ///< slot-ordered constants of the active parameter
  const double* slp;  ///< slot-ordered slopes of the active parameter
  void operator()(std::uint32_t j, const double* xs, double* c,
                  double* s) const {
    const double cj = cst[j];
    const double sj = slp[j];
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      c[l] = cj + sj * xs[l];
      s[l] = sj;
    }
  }
};

/// W-lane edge cost under the CSR fallback: slot j's scalar term walk with
/// the term loop outermost, so each lane accumulates terms in the scalar's
/// exact order (inactive terms contribute the identical product
/// coeff * base[p] to every lane).
template <std::size_t W>
struct CsrLaneCost {
  const std::uint32_t* term_off;
  const std::int32_t* term_param;
  const double* term_coeff;
  const double* edge_const;
  const double* base;
  int active;
  void operator()(std::uint32_t j, const double* xs, double* c,
                  double* s) const {
    const double c0 = edge_const[j];
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      c[l] = c0;
      s[l] = 0.0;
    }
    const std::uint32_t end = term_off[j + 1];
    for (std::uint32_t i = term_off[j]; i < end; ++i) {
      const std::int32_t p = term_param[i];
      const double coeff = term_coeff[i];
      if (p == active) {
        LLAMP_SIMD
        for (std::size_t l = 0; l < W; ++l) {
          c[l] += coeff * xs[l];
          s[l] += coeff;
        }
      } else {
        const double add = coeff * base[static_cast<std::size_t>(p)];
        LLAMP_SIMD
        for (std::size_t l = 0; l < W; ++l) c[l] += add;
      }
    }
  }
};

}  // namespace

void LoweredProblem::prepare_batch(BatchCursor& cur, std::size_t n) const {
  // Same policy as prepare(): the pass writes every row before reading it,
  // so rows are resized without clearing; buffers only grow across
  // problems, and steady state never allocates (test_alloc_free pins this).
  // Rows hold the call's widest sub-block, not always kBatchWidth lanes.
  const std::size_t width = n >= kBatchWidth ? kBatchWidth : util::last_pow2(n);
  const std::size_t rows = g_.num_vertices() * width;
  if (cur.finish_.size() < rows) {
    cur.finish_.resize(rows);
    cur.slope_.resize(rows);
  }
  const std::size_t cands = static_cast<std::size_t>(max_in_degree_) * width;
  if (cur.cand_val_.size() < cands) {
    cur.cand_val_.resize(cands);
    cur.cand_slope_.resize(cands);
  }
}

// llamp-lint: hot-path begin
template <std::size_t W, bool Range, typename LaneCost>
void LoweredProblem::batch_pass(const LaneCost& cost, const double* xs,
                                BatchCursor& cur, BatchPoint* out) const {
  const std::size_t n = g_.num_vertices();
  double* const finish = cur.finish_.data();
  double* const slope = cur.slope_.data();
  double* const cand_val = cur.cand_val_.data();
  double* const cand_slope = cur.cand_slope_.data();

  // Per-lane movement bounds of the active parameter keeping every
  // max-argument selection valid (range variant only).
  double dlo[W];
  double dhi[W];
  if constexpr (Range) {
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      dlo[l] = -kInfD;
      dhi[l] = kInfD;
    }
  }

  double ec[W];  // lane costs of the edge currently being evaluated
  double es[W];  // lane slopes of that edge

  for (std::size_t i = 0; i < n; ++i) {  // topo position order
    const std::uint32_t jlo = in_off_[i];
    const std::uint32_t jhi = in_off_[i + 1];
    const double vc = vertex_cost_topo_[i];
    double* const fi = finish + i * W;
    double* const si = slope + i * W;
    if (jlo == jhi) {
      LLAMP_SIMD
      for (std::size_t l = 0; l < W; ++l) {
        fi[l] = vc;
        si[l] = 0.0;
      }
      continue;
    }
    // First candidate selected unconditionally, exactly like the scalar
    // pass (the seed's first-candidate short-circuit).
    cost(jlo, xs, ec, es);
    const double* fu = finish + static_cast<std::size_t>(in_other_[jlo]) * W;
    const double* su = slope + static_cast<std::size_t>(in_other_[jlo]) * W;
    double bv[W];
    double bs[W];
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      bv[l] = fu[l] + ec[l];
      bs[l] = su[l] + es[l];
    }
    if (jhi - jlo == 1) {
      // Single predecessor: winner by construction, no eps, no constrain.
      LLAMP_SIMD
      for (std::size_t l = 0; l < W; ++l) {
        fi[l] = bv[l] + vc;
        si[l] = bs[l];
      }
      continue;
    }
    std::uint32_t nc = 0;
    if constexpr (Range) {
      LLAMP_SIMD
      for (std::size_t l = 0; l < W; ++l) {
        cand_val[l] = bv[l];
        cand_slope[l] = bs[l];
      }
      nc = 1;
    }
    for (std::uint32_t j = jlo + 1; j < jhi; ++j) {
      cost(j, xs, ec, es);
      const double* fu2 = finish + static_cast<std::size_t>(in_other_[j]) * W;
      const double* su2 = slope + static_cast<std::size_t>(in_other_[j]) * W;
      double* const cvr = cand_val + static_cast<std::size_t>(nc) * W;
      double* const csr = cand_slope + static_cast<std::size_t>(nc) * W;
      LLAMP_SIMD
      for (std::size_t l = 0; l < W; ++l) {
        const double cv = fu2[l] + ec[l];
        const double cs = su2[l] + es[l];
        if constexpr (Range) {
          cvr[l] = cv;
          csr[l] = cs;
        }
        const double be = value_eps(bv[l]);
        // Bitwise | / & instead of short-circuit || / && : both arms are
        // pure comparisons, and the branchless form lets the lane loop
        // compile to vector compare + blend.
        const bool take =
            (cv > bv[l] + be) | ((cv > bv[l] - be) & (cs > bs[l]));
        bv[l] = take ? cv : bv[l];
        bs[l] = take ? cs : bs[l];
      }
      if constexpr (Range) ++nc;
    }
    if constexpr (Range) {
      // Upper-envelope bookkeeping over every candidate row, winner
      // included (its dv == ds == 0 row constrains nothing — see the
      // header comment).  Mirrors constrain() per lane, minus the
      // stable_dhi replay bound, which the batch API does not expose.
      for (std::uint32_t cidx = 0; cidx < nc; ++cidx) {
        const double* cvr2 = cand_val + static_cast<std::size_t>(cidx) * W;
        const double* csr2 = cand_slope + static_cast<std::size_t>(cidx) * W;
        LLAMP_SIMD
        for (std::size_t l = 0; l < W; ++l) {
          const double dv = std::max(bv[l] - cvr2[l], 0.0);
          const double ds = csr2[l] - bs[l];
          const double q = dv / ds;
          dhi[l] = ds > 1e-12 ? std::min(dhi[l], q) : dhi[l];
          dlo[l] = ds < -1e-12 ? std::max(dlo[l], q) : dlo[l];
        }
      }
    }
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      fi[l] = bv[l] + vc;
      si[l] = bs[l];
    }
  }

  // T = max over sinks in ascending vertex-id order; the first sink is
  // selected unconditionally (the scalar kNoEdge short-circuit).
  const std::size_t s0 = sink_pos_[0];
  double bsv[W];
  double bss[W];
  LLAMP_SIMD
  for (std::size_t l = 0; l < W; ++l) {
    bsv[l] = finish[s0 * W + l];
    bss[l] = slope[s0 * W + l];
  }
  for (std::size_t k = 1; k < sink_pos_.size(); ++k) {
    const double* fp = finish + static_cast<std::size_t>(sink_pos_[k]) * W;
    const double* sp = slope + static_cast<std::size_t>(sink_pos_[k]) * W;
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      const double be = value_eps(bsv[l]);
      const bool take =
          (fp[l] > bsv[l] + be) | ((fp[l] > bsv[l] - be) & (sp[l] > bss[l]));
      bsv[l] = take ? fp[l] : bsv[l];
      bss[l] = take ? sp[l] : bss[l];
    }
  }
  if constexpr (Range) {
    for (const std::uint32_t pos : sink_pos_) {
      const double* fp = finish + static_cast<std::size_t>(pos) * W;
      const double* sp = slope + static_cast<std::size_t>(pos) * W;
      LLAMP_SIMD
      for (std::size_t l = 0; l < W; ++l) {
        const double dv = std::max(bsv[l] - fp[l], 0.0);
        const double ds = sp[l] - bss[l];
        const double q = dv / ds;
        dhi[l] = ds > 1e-12 ? std::min(dhi[l], q) : dhi[l];
        dlo[l] = ds < -1e-12 ? std::max(dlo[l], q) : dlo[l];
      }
    }
  }
  LLAMP_SIMD
  for (std::size_t l = 0; l < W; ++l) {
    out[l].value = bsv[l];
    out[l].slope = bss[l];
    out[l].lo = Range ? xs[l] + dlo[l] : -kInfD;
    out[l].hi = Range ? xs[l] + dhi[l] : kInfD;
  }
}
// llamp-lint: hot-path end

template <bool Range>
void LoweredProblem::solve_batch_impl(int active, const double* xs,
                                      std::size_t n, BatchCursor& cur,
                                      BatchPoint* out) const {
  if (active < 0 || active >= num_params_) {
    throw LpError("parametric: active parameter out of range");
  }
  if (n == 0) return;
  if (sink_pos_.empty()) throw LpError("graph has no sink vertex");
  prepare_batch(cur, n);

  const auto run = [&](auto wc, std::size_t i) {
    constexpr std::size_t W = decltype(wc)::value;
    if (flat_) {
      const std::size_t slots = in_edge_.size();
      const FlatLaneCost<W> cost{
          flat_const_slot_.data() + static_cast<std::size_t>(active) * slots,
          flat_slope_slot_.data() + static_cast<std::size_t>(active) * slots};
      batch_pass<W, Range>(cost, xs + i, cur, out + i);
    } else {
      const CsrLaneCost<W> cost{term_offsets_.data(), term_param_.data(),
                                term_coeff_.data(),   edge_const_.data(),
                                base_.data(),         active};
      batch_pass<W, Range>(cost, xs + i, cur, out + i);
    }
  };

  static_assert(kBatchWidth == 16,
                "tail dispatch below enumerates pow2 widths <= kBatchWidth");
  std::size_t i = 0;
  while (i < n) {
    const std::size_t rem = n - i;
    const std::size_t w = rem >= kBatchWidth
                              ? kBatchWidth
                              : static_cast<std::size_t>(util::last_pow2(rem));
    if (w == kBatchWidth) {
      run(std::integral_constant<std::size_t, kBatchWidth>{}, i);
    } else if (w == 8) {
      run(std::integral_constant<std::size_t, 8>{}, i);
    } else if (w == 4) {
      run(std::integral_constant<std::size_t, 4>{}, i);
    } else if (w == 2) {
      run(std::integral_constant<std::size_t, 2>{}, i);
    } else {
      run(std::integral_constant<std::size_t, 1>{}, i);
    }
    i += w;
  }
}

void LoweredProblem::solve_batch(int active, const double* xs, std::size_t n,
                                 BatchCursor& cur, BatchPoint* out) const {
  solve_batch_impl<false>(active, xs, n, cur, out);
}

void LoweredProblem::solve_batch_ranges(int active, const double* xs,
                                        std::size_t n, BatchCursor& cur,
                                        BatchPoint* out) const {
  solve_batch_impl<true>(active, xs, n, cur, out);
}

void LoweredProblem::max_param_for_budget_from_batch(int k, const double* from,
                                                     const double* budget,
                                                     std::size_t n,
                                                     BatchCursor& cur,
                                                     double* out) const {
  if (k < 0 || k >= num_params_) {
    throw LpError("tolerance: parameter out of range");
  }
  if (cur.search_x_.size() < kBatchWidth) {
    cur.search_x_.resize(kBatchWidth);
    cur.search_pts_.resize(kBatchWidth);
  }
  // Lanes run the scalar bracketed-Newton iteration of
  // max_param_for_budget_from() in lockstep: every per-lane decision below
  // is a line-for-line transcription of the scalar body, and each round of
  // surviving lanes is served by ONE ranged batch pass — so a group of
  // kBatchWidth searches costs max-lane-iterations passes instead of
  // sum-over-lanes scalar solves.  Finished lanes keep their last x and are
  // re-evaluated harmlessly until the group drains.
  for (std::size_t g0 = 0; g0 < n; g0 += kBatchWidth) {
    const std::size_t w = std::min(n - g0, kBatchWidth);
    double* const xs = cur.search_x_.data();
    BatchPoint* const pts = cur.search_pts_.data();
    double blo[kBatchWidth];
    double bhi[kBatchWidth];
    double eps[kBatchWidth];
    double res[kBatchWidth];
    bool done[kBatchWidth];
    for (std::size_t l = 0; l < w; ++l) {
      xs[l] = from[g0 + l];
      blo[l] = xs[l];     // T(blo) <= budget
      bhi[l] = kInfD;     // T(bhi) > budget (once finite)
      eps[l] = std::max(1e-6, std::fabs(budget[g0 + l]) * 1e-12);
      done[l] = false;
    }
    solve_batch_ranges(k, xs, w, cur, pts);
    for (std::size_t l = 0; l < w; ++l) {
      if (pts[l].value > budget[g0 + l] + value_eps(budget[g0 + l])) {
        throw LpError(
            strformat("tolerance: T(%g) = %g already exceeds budget %g",
                      xs[l], pts[l].value, budget[g0 + l]));
      }
    }
    std::size_t remaining = w;
    for (int iter = 0; iter < 512 && remaining > 0; ++iter) {
      for (std::size_t l = 0; l < w; ++l) {
        if (done[l]) continue;
        const double slope = pts[l].slope;
        const bool below =
            pts[l].value <= budget[g0 + l] + value_eps(budget[g0 + l]);
        if (below) {
          blo[l] = std::max(blo[l], xs[l]);
          double proposal;
          if (slope > 1e-12) {
            proposal = xs[l] + (budget[g0 + l] - pts[l].value) / slope;
            if (proposal <= pts[l].hi + eps[l]) {
              res[l] = std::max(proposal, from[g0 + l]);
              done[l] = true;
              --remaining;
              continue;
            }
          } else {
            if (!std::isfinite(pts[l].hi)) {
              res[l] = kInfD;  // flat forever
              done[l] = true;
              --remaining;
              continue;
            }
            proposal = pts[l].hi + eps[l];
          }
          if (std::isfinite(bhi[l]) &&
              (proposal >= bhi[l] || proposal <= blo[l])) {
            proposal = 0.5 * (blo[l] + bhi[l]);  // bisect fallback
          }
          xs[l] = proposal;
        } else {
          bhi[l] = std::min(bhi[l], xs[l]);
          double proposal = slope > 1e-12
                                ? xs[l] - (pts[l].value - budget[g0 + l]) / slope
                                : pts[l].lo - eps[l];
          if (slope > 1e-12 && proposal >= pts[l].lo - eps[l]) {
            res[l] = std::max(proposal, from[g0 + l]);
            done[l] = true;
            --remaining;
            continue;
          }
          if (proposal <= blo[l] || proposal >= bhi[l]) {
            proposal = 0.5 * (blo[l] + bhi[l]);
          }
          xs[l] = proposal;
        }
        if (std::isfinite(bhi[l]) && bhi[l] - blo[l] <= eps[l]) {
          res[l] = blo[l];
          done[l] = true;
          --remaining;
        }
      }
      if (remaining == 0) break;
      solve_batch_ranges(k, xs, w, cur, pts);
    }
    if (remaining > 0) throw LpError("tolerance: did not converge");
    for (std::size_t l = 0; l < w; ++l) out[g0 + l] = res[l];
  }
}

}  // namespace llamp::lp
