#include "lp/parametric.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/error.hpp"
#include "util/math.hpp"

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
//    in reverse chain order.  Spaces with integer-valued coefficients
//    (message counts, byte counts) make both sums exact and
//    order-independent — the equivalence wall pins this across all
//    registered apps and both lowerings.  PerturbedParamSpace's noisy
//    coefficients do not: there the slope may differ in the last bits,
//    while value, lo and hi (built from forward sums in both passes) stay
//    bitwise.
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
  const std::size_t cands = g_.topo_slots().max_in_degree * width;
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
  const graph::Graph::TopoSlots& ts = g_.topo_slots();
  const std::uint32_t* const in_off = ts.offsets.data();
  const std::uint32_t* const pred = ts.pred.data();
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
    const std::uint32_t jlo = in_off[i];
    const std::uint32_t jhi = in_off[i + 1];
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
    const double* fu = finish + static_cast<std::size_t>(pred[jlo]) * W;
    const double* su = slope + static_cast<std::size_t>(pred[jlo]) * W;
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
      const double* fu2 = finish + static_cast<std::size_t>(pred[j]) * W;
      const double* su2 = slope + static_cast<std::size_t>(pred[j]) * W;
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
  const std::size_t s0 = ts.sinks[0];
  double bsv[W];
  double bss[W];
  LLAMP_SIMD
  for (std::size_t l = 0; l < W; ++l) {
    bsv[l] = finish[s0 * W + l];
    bss[l] = slope[s0 * W + l];
  }
  for (std::size_t k = 1; k < ts.sinks.size(); ++k) {
    const double* fp = finish + static_cast<std::size_t>(ts.sinks[k]) * W;
    const double* sp = slope + static_cast<std::size_t>(ts.sinks[k]) * W;
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
    for (const std::uint32_t pos : ts.sinks) {
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
  if (g_.topo_slots().sinks.empty()) throw LpError("graph has no sink vertex");
  prepare_batch(cur, n);

  const auto run = [&](auto wc, std::size_t i) {
    constexpr std::size_t W = decltype(wc)::value;
    if (flat_) {
      const std::size_t slots = g_.num_edges();
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

void LoweredProblem::max_param_for_budget_from_batch(
    int k, const double* from, const double* budget, std::size_t n,
    BatchCursor& cur, double* out, const BatchPoint* at_from) const {
  if (k < 0 || k >= num_params_) {
    throw LpError("tolerance: parameter out of range");
  }
  if (n == 0) return;
  if (cur.search_live_.size() < n) {
    cur.search_lo_.resize(n);
    cur.search_hi_.resize(n);
    cur.search_eps_.resize(n);
    cur.search_live_.resize(n);
    cur.search_x_.resize(n);
    cur.search_pts_.resize(n);
  }
  double* const lo = cur.search_lo_.data();
  double* const hi = cur.search_hi_.data();
  double* const eps = cur.search_eps_.data();
  std::uint32_t* const live = cur.search_live_.data();
  double* const xs = cur.search_x_.data();
  BatchPoint* const pts = cur.search_pts_.data();
  // Round 0 evaluates every lane at its `from` (or takes the caller's
  // pass there); live lanes are then gathered in ascending lane order, so
  // round r's evaluation of live[p] sits at pts[p].
  const BatchPoint* round = at_from;
  if (round == nullptr) {
    solve_batch_ranges(k, from, n, cur, pts);
    round = pts;
  }
  for (std::size_t i = 0; i < n; ++i) {
    check_budget(from[i], round[i].value, budget[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    lo[i] = from[i];
    hi[i] = kInfD;
    eps[i] = detail::budget_eps(budget[i]);
    live[i] = static_cast<std::uint32_t>(i);
    xs[i] = from[i];
  }
  // Every lane runs the scalar search's budget_step on its own state, so
  // each lane's iterate sequence is the scalar one; a lane leaves the live
  // list the round it finishes.  Compaction writes slot q <= p after
  // reading slot p, so it runs in place.
  std::size_t m = n;
  for (int iter = 0; iter < detail::kBudgetIters; ++iter) {
    std::size_t q = 0;
    for (std::size_t p = 0; p < m; ++p) {
      const std::uint32_t i = live[p];
      double x = xs[p];
      if (budget_step(round[p], from[i], budget[i], eps[i], x, lo[i], hi[i],
                      out[i])) {
        continue;
      }
      live[q] = i;
      xs[q] = x;
      ++q;
    }
    m = q;
    if (m == 0) return;
    solve_batch_ranges(k, xs, m, cur, pts);
    round = pts;
  }
  throw LpError("tolerance: did not converge");
}

}  // namespace llamp::lp
