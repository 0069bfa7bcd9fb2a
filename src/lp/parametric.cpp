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

/// Parameter-count ceiling for the per-active-parameter flat lowering; the
/// pairwise HLogGP space (O(ranks²) parameters) stays on the CSR fallback
/// rather than materializing O(ranks² · edges) doubles.
constexpr int kFlatParamLimit = 8;

/// Fuzzy-selection guard for the segment walk: the dense pass breaks
/// near-ties within value_eps toward the larger slope, so critical-path
/// replay is only trusted while every losing candidate is at least this
/// many eps away from entering the winner's tie band.
constexpr double kStableMarginFactor = 32.0;

using detail::budget_eps;
using detail::kBudgetIters;
using detail::kNoIndex;
using detail::value_eps;

/// Upper-envelope bookkeeping: given the winning affine piece
/// (value, slope) at δ=0 and a losing candidate, tighten the interval of δ
/// on which the winner stays maximal: V_w + S_w·δ >= V_c + S_c·δ.  Also
/// tightens `stable_dhi`, the sub-interval on which the winner additionally
/// stays clear of the dense pass's fuzzy tie band (see kStableMarginFactor),
/// i.e. on which a dense re-solve provably re-selects the same basis.
void constrain(double win_val, double win_slope, double cand_val,
               double cand_slope, double& dlo, double& dhi,
               double& stable_dhi) {
  const double dv = std::max(win_val - cand_val, 0.0);
  const double ds = cand_slope - win_slope;
  if (ds > 1e-12) {
    dhi = std::min(dhi, dv / ds);
    const double margin = kStableMarginFactor * value_eps(win_val);
    stable_dhi = std::min(stable_dhi, std::max((dv - margin) / ds, 0.0));
  } else if (ds < -1e-12) {
    dlo = std::max(dlo, dv / ds);  // dv/ds <= 0
  }
}

}  // namespace

/// (cost, slope) of an in-edge under the flat lowering: two contiguous
/// loads and one multiply-add, no inner term loop, no per-edge heap
/// vectors.  Indexed by slot `j`, so the forward pass streams the cost
/// arrays strictly sequentially.
struct LoweredProblem::FlatEdgeAt {
  const double* cst;  ///< slot-ordered constants of the active parameter
  const double* slp;  ///< slot-ordered slopes of the active parameter
  double x;
  std::pair<double, double> operator()(std::uint32_t j) const {
    return {cst[j] + slp[j] * x, slp[j]};
  }
};

/// General multi-parameter fallback: walk slot j's CSR term range exactly
/// like the seed walked the per-edge Affine::terms vectors (same term
/// order, same floating-point summation order, flat contiguous storage).
/// The active term multiplies x, every other term its base value.
struct LoweredProblem::CsrEdgeAt {
  const LoweredProblem* s;
  int active;
  double x;
  std::pair<double, double> operator()(std::uint32_t j) const {
    double c = s->edge_const_[j];
    double sl = 0.0;
    const std::uint32_t end = s->term_offsets_[j + 1];
    for (std::uint32_t i = s->term_offsets_[j]; i < end; ++i) {
      const std::int32_t p = s->term_param_[i];
      if (p == active) {
        c += s->term_coeff_[i] * x;
        sl += s->term_coeff_[i];
      } else {
        c += s->term_coeff_[i] * s->base_[static_cast<std::size_t>(p)];
      }
    }
    return {c, sl};
  }
};

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
  // (DESIGN.md §4b).  Each edge's Affine is lowered into its slot's CSR
  // term range, preserving term order; the transient Affine (and its
  // heap-allocated term vector) dies here instead of being walked on every
  // solve.
  const std::size_t n = g_.num_vertices();
  const std::size_t ne = g_.num_edges();
  const std::vector<std::uint32_t>& topo_pos = g_.topo_slots().pos_of;
  const std::vector<std::uint32_t>& slot_of = g_.topo_slots().slot_of;
  const loggops::Params& p = space_->params();
  vertex_cost_topo_.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    vertex_cost_topo_[topo_pos[v]] = graph::vertex_cost(g_.vertex(v), p);
  }
  edge_const_.resize(ne);
  term_offsets_.assign(ne + 1, 0);
  std::vector<ParamTerm> terms;  ///< every edge's terms, edge-id order
  bool one_term_per_edge = true;
  for (std::size_t e = 0; e < ne; ++e) {
    const Affine a =
        space_->edge_cost(g_, g_.edge(static_cast<std::uint32_t>(e)));
    edge_const_[slot_of[e]] = a.constant;
    term_offsets_[slot_of[e] + 1] = static_cast<std::uint32_t>(a.terms.size());
    for (const ParamTerm& t : a.terms) {
      if (t.param < 0 || t.param >= num_params_) {
        throw LpError(strformat("edge cost references parameter %d outside "
                                "the space's %d parameters",
                                t.param, num_params_));
      }
      terms.push_back(t);
    }
    one_term_per_edge = one_term_per_edge && a.terms.size() <= 1;
  }
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

  // Flat lowering: per activatable parameter, a per-slot (constant, slope)
  // pair with the inactive parameter (if any) folded in at its base value.
  // Folding performs the seed's own `c += coeff * point[param]` operation,
  // so evaluation stays bit-for-bit identical to the term walk.
  flat_ =
      one_term_per_edge && num_params_ > 0 && num_params_ <= kFlatParamLimit;
  if (flat_) {
    flat_const_slot_.resize(static_cast<std::size_t>(num_params_) * ne);
    flat_slope_slot_.assign(static_cast<std::size_t>(num_params_) * ne, 0.0);
    for (int k = 0; k < num_params_; ++k) {
      const std::size_t ko = static_cast<std::size_t>(k) * ne;
      for (std::size_t j = 0; j < ne; ++j) {
        double c = edge_const_[j];
        if (term_offsets_[j] < term_offsets_[j + 1]) {
          const std::uint32_t i = term_offsets_[j];
          if (term_param_[i] == k) {
            flat_slope_slot_[ko + j] = term_coeff_[i];
          } else {
            c += term_coeff_[i] *
                 base_[static_cast<std::size_t>(term_param_[i])];
          }
        }
        flat_const_slot_[ko + j] = c;
      }
    }
  }
}

template <typename F>
decltype(auto) LoweredProblem::with_edge_at(int active, double x,
                                            F&& f) const {
  if (flat_) {
    const std::size_t ko = static_cast<std::size_t>(active) * g_.num_edges();
    return f(FlatEdgeAt{flat_const_slot_.data() + ko,
                        flat_slope_slot_.data() + ko, x});
  }
  return f(CsrEdgeAt{this, active, x});
}

void LoweredProblem::prepare(Cursor& cur) const {
  // The pass writes finish/slope/arg_slot for every vertex before reading
  // it, so the arrays are resized without clearing; the variable-length
  // buffers are reserved to their structural maxima.  Steady state never
  // allocates.
  const std::size_t n = g_.num_vertices();
  if (cur.finish_.size() != n) {
    cur.finish_.resize(n);
    cur.slope_.resize(n);
    cur.arg_slot_.resize(n);
  }
  if (cur.last_.chain.capacity() < n) cur.last_.chain.reserve(n);
  cur.cands_.reserve(g_.topo_slots().max_in_degree);
}

// llamp-lint: hot-path begin
template <typename EdgeAt>
void LoweredProblem::forward_pass(int active, double value, Cursor& cur,
                                  const EdgeAt& edge_at) const {
  const std::size_t n = g_.num_vertices();
  const graph::Graph::TopoSlots& ts = g_.topo_slots();
  const std::uint32_t* const in_off = ts.offsets.data();
  const std::uint32_t* const pred = ts.pred.data();
  double* const finish = cur.finish_.data();
  double* const slope = cur.slope_.data();
  std::uint32_t* const arg_slot = cur.arg_slot_.data();
  auto& cands = cur.cands_;

  // Allowed movement of the active parameter relative to `value` keeping
  // every max-argument selection (the LP basis) valid.
  double dlo = -kInfD;
  double dhi = kInfD;
  double stable_dhi = kInfD;

  for (std::size_t i = 0; i < n; ++i) {  // topo position order
    const std::uint32_t jlo = in_off[i];
    const std::uint32_t jhi = in_off[i + 1];
    if (jlo == jhi) {
      finish[i] = vertex_cost_topo_[i];
      slope[i] = 0.0;
      arg_slot[i] = kNoIndex;
      continue;
    }
    // The first candidate is selected unconditionally (exactly the seed's
    // first-candidate short-circuit, which never evaluated eps).
    const auto [c0, s0] = edge_at(jlo);
    const std::uint32_t u0 = pred[jlo];
    double best_val = finish[u0] + c0;
    double best_slope = slope[u0] + s0;
    std::uint32_t best_slot = jlo;
    if (jhi - jlo == 1) {
      // Single predecessor: the candidate is the winner, and the seed's
      // envelope loop skipped it as such — no eps, no constrain.
      finish[i] = best_val + vertex_cost_topo_[i];
      slope[i] = best_slope;
      arg_slot[i] = best_slot;
      continue;
    }
    cands.clear();
    // llamp-lint: allow(hot-alloc): within the capacity prepare() reserved
    // (max_in_degree); zero steady-state allocation is pinned by
    // test_alloc_free's counting operator new.
    cands.emplace_back(best_val, best_slope);
    for (std::uint32_t j = jlo + 1; j < jhi; ++j) {
      const auto [c, s] = edge_at(j);
      const std::uint32_t u = pred[j];
      const double cv = finish[u] + c;
      const double cs = slope[u] + s;
      // llamp-lint: allow(hot-alloc): same reserved-capacity argument as
      // the first candidate above.
      cands.emplace_back(cv, cs);
      const double be = value_eps(best_val);
      if (cv > best_val + be || (cv > best_val - be && cs > best_slope)) {
        best_val = cv;
        best_slope = cs;
        best_slot = j;
      }
    }
    for (const auto& [cv, cs] : cands) {
      if (cv == best_val && cs == best_slope) continue;  // the winner itself
      constrain(best_val, best_slope, cv, cs, dlo, dhi, stable_dhi);
    }
    finish[i] = best_val + vertex_cost_topo_[i];
    slope[i] = best_slope;
    arg_slot[i] = best_slot;
  }

  // T = max over sinks (visited in ascending vertex-id order, exactly like
  // the seed's 0..n scan), with the same envelope bookkeeping.
  AnchorState& last = cur.last_;
  Solution& sol = last.solution;
  sol.active = active;
  sol.at = value;
  sol.messages = 0;
  double best_val = -kInfD;
  double best_slope = 0.0;
  std::uint32_t best_sink = kNoIndex;  // topo position of the critical sink
  for (const std::uint32_t pos : ts.sinks) {
    if (best_sink == kNoIndex || finish[pos] > best_val + value_eps(best_val) ||
        (finish[pos] > best_val - value_eps(best_val) &&
         slope[pos] > best_slope)) {
      best_val = finish[pos];
      best_slope = slope[pos];
      best_sink = pos;
    }
  }
  if (best_sink == kNoIndex) {
    throw LpError("graph has no sink vertex");
  }
  for (const std::uint32_t pos : ts.sinks) {
    if (pos == best_sink) continue;
    constrain(best_val, best_slope, finish[pos], slope[pos], dlo, dhi,
              stable_dhi);
  }
  sol.value = best_val;
  sol.lo = value + dlo;
  sol.hi = value + dhi;
  last.stable_hi = value + stable_dhi;

  // Gradient for *all* parameters: walk the argmax chain from the critical
  // sink, accumulating each slot's coefficients, and cache the chain
  // (source -> sink order) for interior-point replay by the segment walk.
  sol.gradient.assign(static_cast<std::size_t>(num_params_), 0.0);
  last.chain.clear();
  std::uint32_t pos = best_sink;
  while (arg_slot[pos] != kNoIndex) {
    const std::uint32_t j = arg_slot[pos];
    const std::uint32_t end = term_offsets_[j + 1];
    for (std::uint32_t i = term_offsets_[j]; i < end; ++i) {
      sol.gradient[static_cast<std::size_t>(term_param_[i])] +=
          term_coeff_[i];
    }
    if (g_.edge(ts.edge[j]).kind == graph::EdgeKind::kComm) ++sol.messages;
    // llamp-lint: allow(hot-alloc): the chain was reserved to num_vertices
    // in prepare(), the longest possible argmax chain.
    last.chain.push_back(j);
    pos = pred[j];
  }
  last.chain_sink = best_sink;
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
  // Re-sum the critical path with the dense pass's exact operation order:
  // finish[src] = vc[src]; then per chain slot j = (u -> w):
  // best = finish[u] + cost(j); finish[w] = best + vc[w].  A slot's tail
  // is pred[j], so its head is the next slot's tail, or the sink.
  const std::uint32_t* const pred = g_.topo_slots().pred.data();
  const auto& chain = anchor.chain;
  const std::uint32_t sink = anchor.chain_sink;
  const double value = with_edge_at(k, x, [&](const auto& edge_at) {
    double acc = vertex_cost_topo_[chain.empty() ? sink : pred[chain[0]]];
    for (std::size_t h = 0; h < chain.size(); ++h) {
      acc += edge_at(chain[h]).first;
      acc += vertex_cost_topo_[h + 1 < chain.size() ? pred[chain[h + 1]]
                                                    : sink];
    }
    return acc;
  });
  return {x, value, slope};
}
// llamp-lint: hot-path end

void LoweredProblem::solve_into(int active, double value, Cursor& cur) const {
  if (active < 0 || active >= num_params_) {
    throw LpError("parametric: active parameter out of range");
  }
  prepare(cur);
  with_edge_at(active, value, [&](const auto& edge_at) {
    forward_pass(active, value, cur, edge_at);
  });
}

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

LoweredProblem::Solution LoweredProblem::solve() const {
  return solve(0, base_.empty() ? 0.0 : base_[0]);
}

// llamp-lint: hot-path begin
void LoweredProblem::sweep(int k, std::span<const double> xs, Cursor& cur,
                           SweepEval* out, SweepStats* stats) const {
  if (k < 0 || k >= num_params_) {
    throw LpError("parametric: active parameter out of range");
  }
  SweepStats local;
  bool have = false;  // never trust state a previous caller left in cur
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    if (std::isnan(x)) throw LpError(strformat("sweep: x[%zu] is NaN", i));
    const AnchorState& last = cur.last_;
    if (have && last.covers(k, x)) {
      if (x != last.solution.at) ++local.replays;
      out[i] = replay_anchor(last, k, x);
    } else {
      ++local.anchor_solves;
      solve_into(k, x, cur);
      have = true;
      out[i] = {x, last.solution.value,
                last.solution.gradient[static_cast<std::size_t>(k)]};
    }
  }
  if (stats) *stats = local;
}
// llamp-lint: hot-path end

std::vector<LoweredProblem::SweepEval> LoweredProblem::sweep(
    int k, std::span<const double> xs) const {
  Cursor cur;
  std::vector<SweepEval> out(xs.size());
  sweep(k, xs, cur, out.data());
  return out;
}

std::vector<LoweredProblem::Segment> LoweredProblem::piecewise(
    int k, double lo, double hi, Cursor& cur) const {
  if (!(lo <= hi)) throw LpError("piecewise: empty interval");
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

std::vector<LoweredProblem::Segment> LoweredProblem::piecewise(
    int k, double lo, double hi) const {
  Cursor cur;
  return piecewise(k, lo, hi, cur);
}

std::vector<double> LoweredProblem::critical_values(int k, double lo,
                                                    double hi,
                                                    Cursor& cur) const {
  std::vector<double> out;
  const auto segs = piecewise(k, lo, hi, cur);
  for (std::size_t i = 1; i < segs.size(); ++i) {
    out.push_back(segs[i].lo);
  }
  return out;
}

std::vector<double> LoweredProblem::critical_values(int k, double lo,
                                                    double hi) const {
  Cursor cur;
  return critical_values(k, lo, hi, cur);
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
  // lo are bitwise the scalar solve's).  A hop off the grid discards the
  // rest of the run; runs start at one lane and double only after a grid
  // hop, so scans that keep jumping off-grid pay no wasted lanes.  Runs
  // stop at kRunLanes: on 10k-100k-vertex graphs a 4-lane pass costs about
  // one scalar solve, while 8- and 16-lane rows fall out of cache.
  constexpr std::size_t kRunLanes = 4;
  BatchCursor cur;
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

double LoweredProblem::max_param_for_budget(int k, double budget,
                                            Cursor& cur) const {
  if (k < 0 || k >= num_params_) {
    throw LpError("tolerance: parameter out of range");
  }
  return max_param_for_budget_from(k, base_[static_cast<std::size_t>(k)],
                                   budget, cur);
}

double LoweredProblem::max_param_for_budget_from(int k, double from,
                                                 double budget,
                                                 Cursor& cur) const {
  if (k < 0 || k >= num_params_) {
    throw LpError("tolerance: parameter out of range");
  }
  return max_param_for_budget_from(k, from, budget,
                                   solve(k, from, cur).point(), cur);
}

void LoweredProblem::check_budget(double from, double value, double budget) {
  if (value > budget + value_eps(budget)) {
    throw LpError(strformat("tolerance: T(%g) = %g already exceeds budget %g",
                            from, value, budget));
  }
}

bool LoweredProblem::budget_step(const BatchPoint& pt, double from,
                                 double budget, double eps, double& x,
                                 double& lo, double& hi, double& result) {
  // T(x) is convex, piecewise linear, and non-decreasing in any parameter
  // (all edge coefficients are nonnegative), so the crossing T(x) = budget
  // is found by a bracketed Newton/secant iteration: a tangent from below
  // is exact as soon as its crossing lands inside the current linear piece,
  // and overshoots land above the budget, shrinking the bracket
  // [lo, hi] (T(lo) <= budget, T(hi) > budget once finite).  This visits
  // O(log) pieces instead of every basis change, which matters on jittered
  // application graphs with thousands of near-ties.
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
      proposal = pt.hi + eps;
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

double LoweredProblem::max_param_for_budget_from(int k, double from,
                                                 double budget,
                                                 const BatchPoint& at_from,
                                                 Cursor& cur) const {
  if (k < 0 || k >= num_params_) {
    throw LpError("tolerance: parameter out of range");
  }
  check_budget(from, at_from.value, budget);
  const double eps = budget_eps(budget);
  double x = from;
  double lo = from;
  double hi = kInfD;
  double result = 0.0;
  BatchPoint pt = at_from;
  for (int iter = 0; iter < kBudgetIters; ++iter) {
    if (budget_step(pt, from, budget, eps, x, lo, hi, result)) return result;
    pt = solve(k, x, cur).point();
  }
  throw LpError("tolerance: did not converge");
}

double LoweredProblem::max_param_for_budget(int k, double budget) const {
  Cursor cur;
  return max_param_for_budget(k, budget, cur);
}

}  // namespace llamp::lp
