#include "lp/parametric.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/costs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::lp {

namespace {
constexpr double kInfD = std::numeric_limits<double>::infinity();

using detail::kNoIndex;
using detail::value_eps;

}  // namespace

LoweredProblem::LoweredProblem(const graph::Graph& g,
                               std::shared_ptr<const ParamSpace> space)
    : g_(g), space_(std::move(space)) {
  if (!g.finalized()) throw LpError("graph must be finalized");
  if (!space_) throw LpError("null parameter space");
  num_params_ = space_->num_params();
  base_.reserve(static_cast<std::size_t>(num_params_));
  for (int k = 0; k < num_params_; ++k) {
    base_.push_back(space_->base_value(k));
  }

  // Costs are computed in vertex-id and edge-id order and stored straight
  // into their topo position and slot through the graph's maps: reading
  // the graph in slot order instead stalls on a cache miss per edge
  // (DESIGN.md §4b).  A one-parameter space writes each edge's constant
  // and coefficient into its slot's flat row; any other space lowers each
  // edge's Affine into its slot's CSR term range, preserving term order.
  // Either way the transient Affine (and its heap-allocated term vector)
  // dies here instead of being walked on every solve.
  const std::size_t n = g_.num_vertices();
  const std::size_t ne = g_.num_edges();
  const std::vector<std::uint32_t>& topo_pos = g_.topo_slots().pos_of;
  const std::vector<std::uint32_t>& slot_of = g_.topo_slots().slot_of;
  const loggops::Params& p = space_->params();
  vertex_cost_topo_.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    vertex_cost_topo_[topo_pos[v]] = graph::vertex_cost(g_.vertex(v), p);
  }
  flat_ = num_params_ == 1;
  if (flat_) {
    flat_const_slot_.resize(ne);
    flat_slope_slot_.resize(ne);
  } else {
    edge_const_.resize(ne);
    term_offsets_.assign(ne + 1, 0);
  }
  std::vector<ParamTerm> terms;  ///< every edge's terms, edge-id order
  for (std::size_t e = 0; e < ne; ++e) {
    const Affine a =
        space_->edge_cost(g_, g_.edge(static_cast<std::uint32_t>(e)));
    for (const ParamTerm& t : a.terms) {
      if (t.param < 0 || t.param >= num_params_) {
        throw LpError(strformat("edge cost references parameter %d outside "
                                "the space's %d parameters",
                                t.param, num_params_));
      }
    }
    const std::uint32_t j = slot_of[e];
    if (flat_) {
      if (a.terms.size() > 1) {
        throw LpError(strformat("one-parameter space emits %zu terms on "
                                "edge %zu",
                                a.terms.size(), e));
      }
      flat_const_slot_[j] = a.constant;
      flat_slope_slot_[j] = a.terms.empty() ? 0.0 : a.terms[0].coeff;
      continue;
    }
    edge_const_[j] = a.constant;
    term_offsets_[j + 1] = static_cast<std::uint32_t>(a.terms.size());
    terms.insert(terms.end(), a.terms.begin(), a.terms.end());
  }
  if (flat_) return;
  for (std::size_t j = 0; j < ne; ++j) {
    term_offsets_[j + 1] += term_offsets_[j];
  }
  term_param_.resize(terms.size());
  term_coeff_.resize(terms.size());
  const ParamTerm* next = terms.data();
  for (std::size_t e = 0; e < ne; ++e) {
    const std::uint32_t j = slot_of[e];
    for (std::uint32_t i = term_offsets_[j]; i < term_offsets_[j + 1]; ++i) {
      term_param_[i] = next->param;
      term_coeff_[i] = next->coeff;
      ++next;
    }
  }
}

LoweredProblem::LoweredProblem(const graph::Graph& g, const loggops::Params& p)
    : LoweredProblem(std::make_shared<LatencyParamSpace>(p), g) {}

LoweredProblem::LoweredProblem(std::shared_ptr<LatencyParamSpace> space,
                               const graph::Graph& g)
    : LoweredProblem(g, std::shared_ptr<const ParamSpace>(space)) {
  relowerable_ = space.get();
}

// llamp-lint: hot-path begin
void LoweredProblem::relower(const loggops::Params& p,
                             std::span<const double> edge_factor) {
  if (relowerable_ == nullptr || space_.use_count() != 1) {
    throw LpError("relower: the problem does not own its latency space");
  }
  // Every check a fresh lowering of the perturbed space makes, in its
  // order, before any write: the params, the factors, then their count.
  p.validate();
  const std::size_t ne = g_.num_edges();
  for (const double f : edge_factor) {
    if (!std::isfinite(f) || f < 0.0) {
      throw LpError(strformat(
          "perturbed space: edge factors must be finite and >= 0 (got %g)",
          f));
    }
  }
  if (edge_factor.size() != ne) {
    throw LpError(strformat(
        "perturbed space: %zu edge factors for a graph with %zu edges",
        edge_factor.size(), ne));
  }
  loggops::Params& cur = relowerable_->p_;
  if (std::bit_cast<std::uint64_t>(cur.o) != std::bit_cast<std::uint64_t>(p.o) ||
      std::bit_cast<std::uint64_t>(cur.O) != std::bit_cast<std::uint64_t>(p.O)) {
    const std::vector<std::uint32_t>& topo_pos = g_.topo_slots().pos_of;
    for (graph::VertexId v = 0; v < g_.num_vertices(); ++v) {
      vertex_cost_topo_[topo_pos[v]] = graph::vertex_cost(g_.vertex(v), p);
    }
  }
  cur = p;
  base_[0] = p.L;
  // The latency space's one parameter is always active, so slot j's flat
  // row is (constant, coefficient) with nothing folded in; an edge with
  // l_mult == 0 keeps slope 0·f = 0.
  const std::vector<std::uint32_t>& slot_of = g_.topo_slots().slot_of;
  const std::span<const graph::Edge> edges = g_.edges();
  for (std::size_t e = 0; e < ne; ++e) {
    if (carries_no_cost(edges[e])) continue;
    const LatencyEdgeCost c = latency_edge_cost(edges[e], p);
    const double f = edge_factor[e];
    flat_const_slot_[slot_of[e]] = c.constant * f;
    flat_slope_slot_[slot_of[e]] = c.l_coeff * f;
  }
}
// llamp-lint: hot-path end

void LoweredProblem::save_anchor(const Cursor& cur, AnchorState& out) const {
  if (cur.last_.chain_sink == kNoIndex) {
    throw LpError("save_anchor: cursor holds no solve");
  }
  out = cur.last_;
}

const LoweredProblem::Solution& LoweredProblem::solve(int active, double value,
                                                      Cursor& cur) const {
  solve_into(active, value, cur);
  return cur.last_.solution;
}

LoweredProblem::Solution LoweredProblem::solve(int active,
                                               double value) const {
  Cursor cur;
  solve_into(active, value, cur);
  return std::move(cur.last_.solution);
}

std::vector<LoweredProblem::Segment> LoweredProblem::piecewise(
    int k, double lo, double hi) const {
  if (!(lo <= hi)) throw LpError("piecewise: empty interval");
  Cursor cur;
  std::vector<Segment> segs;
  double x = lo;
  const double eps = std::max(1e-6, (hi - lo) * 1e-12);
  constexpr std::size_t kMaxSegments = 1u << 20;
  while (x <= hi) {
    const Solution& s = solve(k, x, cur);
    const double slope = s.gradient[static_cast<std::size_t>(k)];
    const double seg_hi = std::min(s.hi, hi);
    if (!segs.empty() && std::fabs(segs.back().slope - slope) < 1e-9) {
      segs.back().hi = std::max(segs.back().hi, seg_hi);
    } else {
      segs.push_back({x, seg_hi, slope, s.value});
    }
    if (seg_hi >= hi) break;
    x = std::max(seg_hi + eps, x + eps);
    if (segs.size() > kMaxSegments) {
      throw LpError("piecewise: too many segments");
    }
  }
  return segs;
}

std::vector<double> LoweredProblem::critical_values(int k, double lo,
                                                    double hi) const {
  std::vector<double> out;
  const auto segs = piecewise(k, lo, hi);
  for (std::size_t i = 1; i < segs.size(); ++i) {
    out.push_back(segs[i].lo);
  }
  return out;
}

std::vector<double> LoweredProblem::critical_values_algorithm2(
    int k, double lo, double hi, double step, double eps) const {
  if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step) ||
      step < 0.0) {
    throw LpError("algorithm2: lo, hi and step must be finite, step >= 0");
  }
  if (!(lo <= hi)) throw LpError("algorithm2: empty interval");
  if (!(eps > 0.0)) throw LpError("algorithm2: eps must be positive");
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  // Almost every hop lands on L - step, so each run speculates on that grid
  // and solves its points as lanes of one ranged batch pass (per-lane λ and
  // lo are bitwise the dense solve's).  A hop off the grid discards the
  // rest of the run; runs start at one lane and double only after a grid
  // hop, so scans that keep jumping off-grid pay no wasted lanes.  Runs
  // stop at kRunLanes: on 10k-100k-vertex graphs a 4-lane pass costs about
  // one dense solve, while 8- and 16-lane rows fall out of cache.
  constexpr std::size_t kRunLanes = 4;
  Cursor cur;
  double xs[kRunLanes];
  BatchPoint pts[kRunLanes];
  std::size_t width = 0;  // lanes of the current run
  std::size_t n = 0;      // lanes it solved
  std::size_t l = 0;      // next lane to consume
  std::vector<double> lc;
  double L = hi;
  double lambda = std::numeric_limits<double>::quiet_NaN();
  double prev_lo = kInfD;
  constexpr std::size_t kMaxIters = 1u << 20;
  for (std::size_t iter = 0; iter < kMaxIters; ++iter) {
    if (l == n || !same_bits(L, xs[l])) {
      width = l > 0 && same_bits(L, xs[l - 1] - step)
                  ? std::min(2 * width, kRunLanes)
                  : 1;
      xs[0] = L;
      for (n = 1; n < width && xs[n - 1] - step >= lo; ++n) {
        xs[n] = xs[n - 1] - step;
      }
      solve_batch_ranges(k, xs, n, cur, pts);
      l = 0;
    }
    // "Assign constraint l >= L; optimize" — one solve yields the objective,
    // the reduced cost λ', and SALBLow (the basis' feasibility floor).
    const double lambda_new = pts[l].slope;
    const double lo_new = pts[l++].lo;
    if (!std::isnan(lambda) && std::fabs(lambda_new - lambda) > 1e-12) {
      // λ changed between the previous basis and this one: the boundary is
      // the previous basis' feasibility floor.
      if (prev_lo >= lo - eps && prev_lo <= hi + eps) lc.push_back(prev_lo);
    }
    lambda = lambda_new;
    prev_lo = lo_new;
    if (!(lo_new >= lo)) break;  // paper: until L_fl < L_min (or -inf)
    L = std::min(L - step, lo_new - eps);
    if (L < lo) {
      // One final probe at the interval's left end covers a boundary that
      // sits between lo and the current basis' floor.
      BatchPoint tail;
      solve_batch(k, &lo, 1, cur, &tail);
      if (std::fabs(tail.slope - lambda) > 1e-12 && lo_new >= lo - eps &&
          lo_new <= hi + eps) {
        lc.push_back(lo_new);
      }
      break;
    }
  }
  std::sort(lc.begin(), lc.end());
  lc.erase(std::unique(lc.begin(), lc.end(),
                       [](double a, double b) { return std::fabs(a - b) < 1e-9; }),
           lc.end());
  return lc;
}

bool LoweredProblem::budget_step(const BatchPoint& pt, double from,
                                 double budget, BudgetBracket& b, double& x,
                                 double& result) {
  // T(x) is convex, piecewise linear, and non-decreasing in any parameter
  // (all edge coefficients are nonnegative), so the crossing T(x) = budget
  // is found by a bracketed Newton/secant iteration: a tangent from below
  // is exact as soon as its crossing lands inside the current linear piece,
  // and overshoots land above the budget, shrinking the bracket
  // [lo, hi] (T(lo) <= budget, T(hi) > budget once finite).  This visits
  // O(log) pieces instead of every basis change, which matters on jittered
  // application graphs with thousands of near-ties.  An unbounded budget
  // is met everywhere; stepping toward it would probe x = +inf (its
  // bracket width budget_eps(+inf) is +inf too), where T is NaN, and step
  // on until kBudgetIters ran out.
  if (budget == kInfD) {
    result = kInfD;
    return true;
  }
  const double eps = b.eps;
  double& lo = b.lo;
  double& hi = b.hi;
  const int flat = b.flat;
  b.flat = 0;
  if (pt.value <= budget + value_eps(budget)) {
    lo = std::max(lo, x);
    double proposal;
    if (pt.slope > 1e-12) {
      proposal = x + (budget - pt.value) / pt.slope;
      // Tangent crossing inside the current piece: exact answer.  The
      // clamp defines the boundary case where the budget is already tied
      // within the fuzzy band at `from` (T(from) in (budget,
      // budget + eps]): the tangent would extrapolate below the anchor —
      // a negative tolerance — so the result is pinned to `from` itself.
      if (proposal <= pt.hi + eps) {
        result = std::max(proposal, from);
        return true;
      }
    } else {
      if (!std::isfinite(pt.hi)) {  // flat forever
        result = kInfD;
        return true;
      }
      // Cross the flat piece.  After kFlatRun crossings in a row each jump
      // at least doubles the last, so a stretch split into thousands of
      // near-tie pieces costs O(log) steps; an overshoot lands above the
      // budget and the bracket takes over.
      proposal = pt.hi + eps;
      b.flat = flat + 1;
      if (b.flat > detail::kFlatRun) {
        proposal = std::max(proposal, x + 2.0 * b.jump);
      }
      b.jump = proposal - x;
    }
    if (std::isfinite(hi) && (proposal >= hi || proposal <= lo)) {
      proposal = 0.5 * (lo + hi);  // bisect fallback
    }
    x = proposal;
  } else {
    hi = std::min(hi, x);
    // Walk the current piece's line back down to the budget.
    double proposal = pt.slope > 1e-12 ? x - (pt.value - budget) / pt.slope
                                       : pt.lo - eps;
    if (pt.slope > 1e-12 && proposal >= pt.lo - eps) {
      result = std::max(proposal, from);  // same boundary clamp as above
      return true;
    }
    if (proposal <= lo || proposal >= hi) proposal = 0.5 * (lo + hi);
    x = proposal;
  }
  if (std::isfinite(hi) && hi - lo <= eps) {
    result = lo;
    return true;
  }
  return false;
}

}  // namespace llamp::lp
