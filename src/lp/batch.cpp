#include "lp/parametric.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

// The forward-pass kernel (DESIGN.md §4f).  Every solve runs through one
// template, batch_pass<W, Pass>: a dense solve() is its 1-lane kDense
// instance, solve_batch / solve_batch_ranges and the pooled budget search
// run it over blocks of W scenarios, and replay_anchor re-sums a critical
// path through its 1-lane edge costs.  One pass over the topo-permuted
// adjacency evaluates W parameter points at once: every per-vertex
// accumulator is a W-lane row (structure-of-arrays over the sample axis),
// and every lane loop performs the same floating-point operations in the
// same order per lane — so lane l of a W-lane pass is bitwise the 1-lane
// pass at xs[l], whatever W and lane position.
//
// Determinism notes, load-bearing for the bitwise contracts pinned by
// test_solver_hotpath.cpp and the golden files:
//
//  * This translation unit is compiled with -ffp-contract=off (see
//    CMakeLists.txt): `c + s*x` stays a multiply then an add, the seed
//    walk's unfused operation order that the goldens pin, while
//    -march=native vectorizes the lane loops.
//  * Selection and envelope bookkeeping are branchless blends.  The
//    winner's own candidate row has dv == 0 and ds == 0 exactly (it was
//    copied from the same doubles), so constraining it tightens nothing;
//    a ds == 0 division yields inf/NaN which the blend discards before it
//    can reach dlo/dhi.
//  * The reported slope is accumulated *forward* along the argmax path,
//    while the dense Solution.gradient re-sums the critical path in a
//    chain walk from the sink.  Spaces with integer-valued coefficients
//    (message counts, byte counts) make both sums exact and
//    order-independent — the equivalence wall pins this across all
//    registered apps and both lowerings.  A perturbed lowering's noisy
//    coefficients (relower) do not: there the slope may differ in the
//    last bits, while value, lo and hi (built from the same forward sums)
//    stay bitwise.
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

/// Fuzzy-selection guard for the segment walk: the pass breaks near-ties
/// within value_eps toward the larger slope, so critical-path replay is
/// only trusted while every losing candidate is at least this many eps
/// away from entering the winner's tie band.
constexpr double kStableMarginFactor = 32.0;

using detail::kNoIndex;
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

/// W-lane edge cost under the CSR fallback: slot j's term walk with the
/// term loop outermost, so each lane accumulates terms in the seed's
/// per-edge term order (inactive terms contribute the identical product
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

template <std::size_t W, typename F>
decltype(auto) LoweredProblem::with_lane_cost(int active, F&& f) const {
  if (flat_) {
    const std::size_t ko = static_cast<std::size_t>(active) * g_.num_edges();
    return f(FlatLaneCost<W>{flat_const_slot_.data() + ko,
                             flat_slope_slot_.data() + ko});
  }
  return f(CsrLaneCost<W>{term_offsets_.data(), term_param_.data(),
                          term_coeff_.data(), edge_const_.data(),
                          base_.data(), active});
}

void LoweredProblem::prepare_batch(Cursor& cur, std::size_t n) const {
  // The pass writes every row before reading it, so rows are resized
  // without clearing; buffers only grow across problems, and steady state
  // never allocates (test_alloc_free pins this).  Rows hold the call's
  // widest sub-block, not always kBatchWidth lanes.
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
template <std::size_t W, LoweredProblem::Pass P, typename LaneCost>
void LoweredProblem::batch_pass(const LaneCost& cost, const double* xs,
                                Cursor& cur, BatchPoint* out) const {
  constexpr bool kRange = P != Pass::kValues;
  constexpr bool kDense = P == Pass::kDense;
  static_assert(!kDense || W == 1, "the chain walk reads a single lane");
  const std::size_t n = g_.num_vertices();
  const graph::Graph::TopoSlots& ts = g_.topo_slots();
  const std::uint32_t* const in_off = ts.offsets.data();
  const std::uint32_t* const pred = ts.pred.data();
  double* const finish = cur.finish_.data();
  double* const slope = cur.slope_.data();
  double* const cand_val = cur.cand_val_.data();
  double* const cand_slope = cur.cand_slope_.data();
  std::uint32_t* const arg = kDense ? cur.arg_slot_.data() : nullptr;

  // Per-lane movement bounds of the active parameter keeping every
  // max-argument selection valid (ranged and dense passes), and the
  // dense pass's stability bound.
  double dlo[W];
  double dhi[W];
  double sdhi[W];
  if constexpr (kRange) {
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      dlo[l] = -kInfD;
      dhi[l] = kInfD;
      sdhi[l] = kInfD;
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
      if constexpr (kDense) arg[i] = kNoIndex;
      continue;
    }
    // The first candidate is selected unconditionally (exactly the seed's
    // first-candidate short-circuit, which never evaluated eps).
    cost(jlo, xs, ec, es);
    const double* fu = finish + static_cast<std::size_t>(pred[jlo]) * W;
    const double* su = slope + static_cast<std::size_t>(pred[jlo]) * W;
    double bv[W];
    double bs[W];
    std::uint32_t bj[W];  // winning slot (dense pass only)
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      bv[l] = fu[l] + ec[l];
      bs[l] = su[l] + es[l];
      bj[l] = jlo;
    }
    if (jhi - jlo == 1) {
      // Single predecessor: winner by construction, no eps, no envelope.
      LLAMP_SIMD
      for (std::size_t l = 0; l < W; ++l) {
        fi[l] = bv[l] + vc;
        si[l] = bs[l];
      }
      if constexpr (kDense) arg[i] = jlo;
      continue;
    }
    std::uint32_t nc = 0;
    if constexpr (kRange) {
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
        if constexpr (kRange) {
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
        if constexpr (kDense) bj[l] = take ? j : bj[l];
      }
      if constexpr (kRange) ++nc;
    }
    if constexpr (kRange) {
      // Upper-envelope bookkeeping over every candidate row, winner
      // included (its dv == ds == 0 row constrains nothing — see the
      // header comment): tighten [dlo, dhi], the δ on which the winner
      // (bv, bs) stays maximal, bv + bs·δ >= cv + cs·δ.  The dense pass
      // also tightens sdhi, the sub-interval on which the winner stays
      // kStableMarginFactor eps clear of the tie band, i.e. on which a
      // dense re-solve provably re-selects the same basis; it is clamped
      // at 0, so once there no candidate can move it and the division is
      // skipped.
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
          if constexpr (kDense) {
            if (ds > 1e-12 && sdhi[l] > 0.0) {
              const double margin = kStableMarginFactor * value_eps(bv[l]);
              sdhi[l] = std::min(sdhi[l], std::max((dv - margin) / ds, 0.0));
            }
          }
        }
      }
    }
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      fi[l] = bv[l] + vc;
      si[l] = bs[l];
    }
    if constexpr (kDense) arg[i] = bj[0];
  }

  // T = max over sinks in ascending vertex-id order (the seed's 0..n
  // scan); the first sink is selected unconditionally.
  const std::uint32_t s0 = ts.sinks[0];
  double bsv[W];
  double bss[W];
  std::uint32_t bsink[W];  // critical sink's topo position (dense only)
  LLAMP_SIMD
  for (std::size_t l = 0; l < W; ++l) {
    bsv[l] = finish[s0 * W + l];
    bss[l] = slope[s0 * W + l];
    bsink[l] = s0;
  }
  for (std::size_t k = 1; k < ts.sinks.size(); ++k) {
    const std::uint32_t pos = ts.sinks[k];
    const double* fp = finish + static_cast<std::size_t>(pos) * W;
    const double* sp = slope + static_cast<std::size_t>(pos) * W;
    LLAMP_SIMD
    for (std::size_t l = 0; l < W; ++l) {
      const double be = value_eps(bsv[l]);
      const bool take =
          (fp[l] > bsv[l] + be) | ((fp[l] > bsv[l] - be) & (sp[l] > bss[l]));
      bsv[l] = take ? fp[l] : bsv[l];
      bss[l] = take ? sp[l] : bss[l];
      if constexpr (kDense) bsink[l] = take ? pos : bsink[l];
    }
  }
  if constexpr (kRange) {
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
        if constexpr (kDense) {
          if (ds > 1e-12 && sdhi[l] > 0.0) {
            const double margin = kStableMarginFactor * value_eps(bsv[l]);
            sdhi[l] = std::min(sdhi[l], std::max((dv - margin) / ds, 0.0));
          }
        }
      }
    }
  }
  LLAMP_SIMD
  for (std::size_t l = 0; l < W; ++l) {
    out[l].value = bsv[l];
    out[l].slope = bss[l];
    out[l].lo = kRange ? xs[l] + dlo[l] : -kInfD;
    out[l].hi = kRange ? xs[l] + dhi[l] : kInfD;
  }
  if constexpr (kDense) {
    cur.last_.stable_hi = xs[0] + sdhi[0];
    cur.last_.chain_sink = bsink[0];
  }
}
// llamp-lint: hot-path end

template <LoweredProblem::Pass P>
void LoweredProblem::run_pass(int active, const double* xs, std::size_t n,
                              Cursor& cur, BatchPoint* out) const {
  if (active < 0 || active >= num_params_) {
    throw LpError("parametric: active parameter out of range");
  }
  if (n == 0) return;
  if (g_.topo_slots().sinks.empty()) throw LpError("graph has no sink vertex");
  prepare_batch(cur, n);

  const auto run = [&](auto wc, std::size_t i) {
    constexpr std::size_t W = decltype(wc)::value;
    with_lane_cost<W>(active, [&](const auto& cost) {
      batch_pass<W, P>(cost, xs + i, cur, out + i);
    });
  };

  if constexpr (P == Pass::kDense) {
    const std::size_t nv = g_.num_vertices();
    if (cur.arg_slot_.size() < nv) cur.arg_slot_.resize(nv);
    run(std::integral_constant<std::size_t, 1>{}, 0);
  } else {
    static_assert(kBatchWidth == 16,
                  "tail dispatch below enumerates pow2 widths <= kBatchWidth");
    std::size_t i = 0;
    while (i < n) {
      const std::size_t rem = n - i;
      const std::size_t w =
          rem >= kBatchWidth ? kBatchWidth
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
}

// llamp-lint: hot-path begin
void LoweredProblem::solve_into(int active, double value, Cursor& cur) const {
  BatchPoint pt;
  run_pass<Pass::kDense>(active, &value, 1, cur, &pt);
  AnchorState& last = cur.last_;
  Solution& sol = last.solution;
  sol.value = pt.value;
  sol.active = active;
  sol.at = value;
  sol.lo = pt.lo;
  sol.hi = pt.hi;
  sol.messages = 0;

  // Gradient for *all* parameters: walk the argmax chain from the critical
  // sink, accumulating each slot's coefficients, and keep the chain
  // (source -> sink order) for replay.  A flat lowering adds slot j's
  // coefficient on every parameter, +0.0 where j has no term on it: exact,
  // so the sums match the CSR term walk's bit for bit.
  const graph::Graph::TopoSlots& ts = g_.topo_slots();
  const std::uint32_t* const arg = cur.arg_slot_.data();
  const std::size_t ne = g_.num_edges();
  sol.gradient.assign(static_cast<std::size_t>(num_params_), 0.0);
  double* const grad = sol.gradient.data();
  if (last.chain.capacity() < g_.num_vertices()) {
    // llamp-lint: allow(hot-alloc): first solve only; the longest possible
    // argmax chain visits every vertex.
    last.chain.reserve(g_.num_vertices());
  }
  last.chain.clear();
  for (std::uint32_t pos = last.chain_sink; arg[pos] != kNoIndex;
       pos = ts.pred[arg[pos]]) {
    const std::uint32_t j = arg[pos];
    if (flat_) {
      for (std::size_t k = 0; k < sol.gradient.size(); ++k) {
        grad[k] += flat_slope_slot_[k * ne + j];
      }
    } else {
      const std::uint32_t end = term_offsets_[j + 1];
      for (std::uint32_t i = term_offsets_[j]; i < end; ++i) {
        grad[static_cast<std::size_t>(term_param_[i])] += term_coeff_[i];
      }
    }
    if (g_.edge(ts.edge[j]).kind == graph::EdgeKind::kComm) ++sol.messages;
    // llamp-lint: allow(hot-alloc): within the capacity reserved above.
    last.chain.push_back(j);
  }
  std::reverse(last.chain.begin(), last.chain.end());
}

LoweredProblem::SweepEval LoweredProblem::replay_anchor(
    const AnchorState& anchor, int k, double x) const {
  // The cross-request warm path: a cached anchor serves a later point query
  // with no forward pass and no cursor.  Everything read here is immutable
  // problem state or the caller's anchor, so concurrent replays from any
  // number of threads are safe.
  if (!anchor.covers(k, x)) {
    throw LpError(strformat(
        "replay_anchor: x = %g outside the anchor's zone [%g, %g)", x,
        anchor.solution.at, anchor.stable_hi));
  }
  const double slope = anchor.solution.gradient[static_cast<std::size_t>(k)];
  if (x == anchor.solution.at) {
    // The anchor point itself: the stored dense solution is the answer.
    return {x, anchor.solution.value, slope};
  }
  // Re-sum the critical path with the 1-lane pass's exact operation order:
  // finish[src] = vc[src]; then per chain slot j = (u -> w):
  // best = finish[u] + cost(j); finish[w] = best + vc[w].  A slot's tail
  // is pred[j], so its head is the next slot's tail, or the sink.
  const std::uint32_t* const pred = g_.topo_slots().pred.data();
  const auto& chain = anchor.chain;
  const std::uint32_t sink = anchor.chain_sink;
  const double value = with_lane_cost<1>(k, [&](const auto& cost) {
    double acc = vertex_cost_topo_[chain.empty() ? sink : pred[chain[0]]];
    for (std::size_t h = 0; h < chain.size(); ++h) {
      double c;
      double s;
      cost(chain[h], &x, &c, &s);
      acc += c;
      acc += vertex_cost_topo_[h + 1 < chain.size() ? pred[chain[h + 1]]
                                                    : sink];
    }
    return acc;
  });
  return {x, value, slope};
}
// llamp-lint: hot-path end

void LoweredProblem::solve_batch(int active, const double* xs, std::size_t n,
                                 Cursor& cur, BatchPoint* out) const {
  run_pass<Pass::kValues>(active, xs, n, cur, out);
}

void LoweredProblem::solve_batch_ranges(int active, const double* xs,
                                        std::size_t n, Cursor& cur,
                                        BatchPoint* out) const {
  run_pass<Pass::kRanges>(active, xs, n, cur, out);
}

void LoweredProblem::max_param_for_budget_from_batch(
    int k, const double* from, const double* budget, std::size_t n,
    Cursor& cur, double* out, const BatchPoint* at_from) const {
  if (k < 0 || k >= num_params_) {
    throw LpError("tolerance: parameter out of range");
  }
  if (n == 0) return;
  if (cur.search_live_.size() < n) {
    cur.search_.resize(n);
    cur.search_live_.resize(n);
    cur.search_x_.resize(n);
    cur.search_pts_.resize(n);
  }
  BudgetBracket* const bracket = cur.search_.data();
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
    bracket[i] = {from[i], kInfD, detail::budget_eps(budget[i])};
    live[i] = static_cast<std::uint32_t>(i);
    xs[i] = from[i];
  }
  // Every lane runs the single search's budget_step on its own state, so
  // each lane's iterate sequence is the single search's; a lane leaves the live
  // list the round it finishes.  Compaction writes slot q <= p after
  // reading slot p, so it runs in place.
  std::size_t m = n;
  for (int iter = 0; iter < detail::kBudgetIters; ++iter) {
    std::size_t q = 0;
    for (std::size_t p = 0; p < m; ++p) {
      const std::uint32_t i = live[p];
      double x = xs[p];
      if (budget_step(round[p], from[i], budget[i], bracket[i], x, out[i])) {
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
