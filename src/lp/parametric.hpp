#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "lp/param_space.hpp"

namespace llamp::lp {

namespace detail {
/// Relative tolerance for value comparisons (times are O(1e10) ns): the
/// forward pass breaks near-ties within it toward the larger slope, and the
/// budget search uses it for its infeasibility check.
inline double value_eps(double v) { return 1e-9 * (1.0 + std::fabs(v)); }
/// "No slot / no topo position" sentinel: a source vertex's argmax, and a
/// cursor or anchor that holds no solve.
inline constexpr std::uint32_t kNoIndex =
    std::numeric_limits<std::uint32_t>::max();
/// Bracket width at which a budget search settles on its lower end, and
/// the Newton step cap after which it gives up: shared by the per-call and
/// pooled searches, whose lanes must stop at the same iterate.
inline double budget_eps(double budget) {
  return std::max(1e-6, std::fabs(budget) * 1e-12);
}
inline constexpr int kBudgetIters = 1024;
/// Consecutive flat pieces a budget search crosses one at a time before
/// each further crossing at least doubles the last one.  Near-ties split a
/// flat stretch of T into many basis pieces (619 on lammps-216 at scale
/// 0.25).  A search capped at 512 steps never crossed more than 511 in a
/// row and converged, so every such search keeps its exact iterate
/// sequence; the longest run measured on the goldens and corpora is 480.
inline constexpr int kFlatRun = 511;
}  // namespace detail

/// Sample-axis block width of the batched forward pass (doubles per lane
/// group).  One batch pass evaluates kBatchWidth parameter points at once
/// with stride-1 inner loops over the lane axis; the width is a power of
/// two, sized at two widest-vector-unit registers (16 doubles = two
/// AVX-512 registers, four AVX2 registers) so the per-edge scalar work —
/// index loads, pointer arithmetic, the cost broadcast — amortizes over
/// more lanes than one register would give.  Tail groups shorter than
/// this run through last_pow2-sized sub-blocks, so any n is served
/// exactly.
inline constexpr std::size_t kBatchWidth = 16;

/// Exact solver state for the LP class produced by Algorithm 1.  Those LPs
/// are longest-path problems on a DAG whose edge costs are affine in the
/// decision parameters, so the optimum is computable by a single forward
/// pass — and, crucially, the pass can carry *sensitivity* information
/// along:
///
/// * the local slope of every vertex's completion time w.r.t. the active
///   parameter (the per-path message count of §II-B), and
/// * the interval of the active parameter around the evaluation point on
///   which every max-argument choice — i.e. the LP basis — stays optimal.
///
/// The returned value/gradient/range triple is exactly what the paper reads
/// off Gurobi (objective, reduced costs, SALBLow/SALBUp), which makes this
/// class a drop-in high-capacity replacement for the simplex path; the test
/// suite proves the two agree on random graphs.
///
/// One pass (DESIGN.md §4f): a single kernel template, batch_pass<W, Pass>
/// in src/lp/batch.cpp, runs every forward pass.  solve() is its 1-lane
/// kDense instance followed by a sink -> source chain walk for the full
/// gradient; solve_batch / solve_batch_ranges and both budget-search forms
/// run it over lanes of scenarios; anchor replay re-sums a critical path
/// through its 1-lane edge costs.
///
/// Ownership split (DESIGN.md §4e): a LoweredProblem is the *immutable*
/// half of a solver — the CSR/SoA cost arrays and base point lowered once
/// at construction.  After construction every method is const and touches
/// only caller-owned scratch, so one LoweredProblem may be shared freely
/// across threads and cached across requests (see core::SolverCache).  The
/// mutable half is the per-query Cursor below; the bridge between queries
/// is the AnchorState snapshot, which replays bitwise-identically to a
/// dense solve inside its stability zone.
///
/// Hot-path layout (DESIGN.md §4b): everything is indexed by topo *slot*,
/// the index space of the graph's Graph::TopoSlots, which the graph builds
/// once in finalize() and every lowering of it shares.  Vertices are
/// numbered by topo position i, the in-edges of position i occupy the
/// contiguous slot range [offsets[i], offsets[i+1]) in ascending edge id,
/// and slot j's predecessor is topo position pred[j].  A lowering owns only
/// what depends on its ParamSpace.  At construction the per-edge Affine
/// expressions are lowered straight into slot order: CSR term ranges per
/// slot and, when every edge carries at most one parametric term and the
/// space is small (LatencyParamSpace, the shared wire-latency space), a
/// per-activatable-parameter (constant, slope) pair per slot with every
/// inactive parameter folded in — two contiguous loads and one
/// multiply-add per edge; a flat lowering then releases its CSR terms.
/// The CSR term walk is the multi-parameter fallback
/// (PairwiseLatencyParamSpace, multi-term edges).  The critical
/// path is a list of slots, so the forward pass, the chain walk, and anchor
/// replay read only the slot arrays (and the edge kind behind
/// Solution::messages).  Both lowerings replicate the seed implementation's
/// floating-point operation order exactly, so results are bit-for-bit
/// identical to the original per-edge heap-vector walk.
class LoweredProblem {
 public:
  LoweredProblem(const graph::Graph& g,
                 std::shared_ptr<const ParamSpace> space);
  /// A latency lowering at `p` that owns its LatencyParamSpace alone and
  /// so may be re-lowered in place (relower).  Same rows as
  /// LoweredProblem(g, std::make_shared<LatencyParamSpace>(p)).
  LoweredProblem(const graph::Graph& g, const loggops::Params& p);
  /// The problem keeps a reference; a temporary graph would dangle.
  LoweredProblem(graph::Graph&&, std::shared_ptr<const ParamSpace>) = delete;
  LoweredProblem(graph::Graph&&, const loggops::Params&) = delete;
  LoweredProblem(const LoweredProblem&) = delete;
  LoweredProblem& operator=(const LoweredProblem&) = delete;

  const ParamSpace& space() const { return *space_; }
  std::shared_ptr<const ParamSpace> space_ptr() const { return space_; }
  const graph::Graph& graph() const { return g_; }
  int num_params() const { return num_params_; }
  /// True when the per-active-parameter flat lowering is in effect (every
  /// edge has at most one term, small space); false on the CSR fallback.
  bool flat() const { return flat_; }

  /// Re-lower in place at operating point `p` with every edge's whole
  /// cost, constant and L coefficient, scaled by edge_factor[edge id] (the
  /// general Monte Carlo path's one lowering per worker).  Afterwards the
  /// rows, the base point and space().params() are those of a fresh
  /// lowering of the latency space at `p` with each edge's Affine scaled
  /// by its factor, so every solve agrees with that lowering bit for bit:
  /// a costed edge's row gets the two multiplies c·f and l·f, an edge that
  /// carries no cost keeps its zero row, and vertex costs are rewritten
  /// only when o or O moved.  Only a problem built by the Params
  /// constructor whose space no one else holds can move; cached problems
  /// are shared_ptr<const LoweredProblem> and never can.  Throws, before
  /// touching any row, on a bad p (Params::validate), a negative or
  /// non-finite factor, or a factor count that is not the edge count.
  /// Allocates nothing.
  void relower(const loggops::Params& p, std::span<const double> edge_factor);

  /// One lane of a batched forward pass: T, the active slope, and (when
  /// requested) the active parameter's feasibility range at that lane's
  /// evaluation point.  value, lo and hi are bitwise identical to
  /// solve(active, x)'s.  slope is gradient[active] bitwise when the space
  /// lowers integer-valued coefficients (every first-party space, but not
  /// a lowering relowered with non-integer factors); the pass sums it
  /// source -> sink and the dense solve's chain walk sink -> source, so on
  /// a perturbed lowering the two may differ in the last bits (DESIGN.md
  /// §4f).
  struct BatchPoint {
    double value = 0.0;
    double slope = 0.0;
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
  };

  struct Solution {
    double value = 0.0;  ///< T: program makespan at the evaluation point
    /// λ per parameter: Σ of that parameter's coefficients along the
    /// critical path (∂T/∂x_k).  gradient[active] is the active slope.
    std::vector<double> gradient;
    int active = 0;      ///< the parameter that was varied
    double at = 0.0;     ///< its evaluation value
    /// Feasibility range of the active parameter: the interval around `at`
    /// on which the critical-path structure (LP basis) is unchanged and T
    /// remains the same linear function.
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    /// Number of communication edges on the critical path.
    std::size_t messages = 0;

    /// T, the active slope and the range as a BatchPoint: the `at_from`
    /// input of the budget searches.
    BatchPoint point() const {
      return {value, gradient[static_cast<std::size_t>(active)], lo, hi};
    }
  };

  /// A detached snapshot of one anchor solve: the solution, the critical
  /// path it selected, and the stability zone on which a dense re-solve
  /// provably re-selects that basis.  A cursor keeps its last solve as one
  /// (sweep() replays it); it is also the unit core::SolverCache stores —
  /// an anchor saved by one request serves later requests (and other
  /// threads) through replay_anchor() without touching any cursor.
  struct AnchorState {
    Solution solution;
    /// Critical-path slots, source -> sink; slot j's tail is topo position
    /// TopoSlots::pred[j], its head the next slot's tail (chain_sink for
    /// the last).
    std::vector<std::uint32_t> chain;
    std::uint32_t chain_sink = detail::kNoIndex;  ///< critical sink's topo pos
    /// Absolute bound below which a dense pass re-selects this basis.
    double stable_hi = -std::numeric_limits<double>::infinity();

    /// True when replay_anchor(*this, k, x) is valid: same active
    /// parameter, and x at the anchor point or inside its stability zone.
    bool covers(int k, double x) const {
      return solution.active == k &&
             (x == solution.at || (x > solution.at && x < stable_hi));
    }
  };

  /// One budget search's state between Newton steps: the bracket
  /// [lo, hi] (T(lo) <= budget, T(hi) > budget once finite), its settling
  /// width, and the run of flat pieces crossed so far.
  struct BudgetBracket {
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    double eps = 0.0;
    int flat = 0;       ///< consecutive flat pieces crossed
    double jump = 0.0;  ///< length of the last flat crossing
  };

  /// The mutable per-query half of a solver: the forward-pass rows, the
  /// pooled budget-search rows, and the anchor of its last dense solve
  /// (whose Solution solve(active, value, cur) returns by reference).
  /// Every row is laid out structure-of-arrays over the lane axis
  /// (finish_[pos * width + lane]) and only grows: a call sizes its rows
  /// for its own widest sub-block (one lane for a dense solve), so
  /// steady-state solves perform zero heap allocations once the rows have
  /// grown to the largest graph, space and width seen.
  ///
  /// Ownership rules: one cursor per thread.  A cursor may be shared
  /// freely across LoweredProblem instances, scenarios and entry points —
  /// every pass rewrites all state it reads — but never across concurrent
  /// callers.
  class Cursor {
   public:
    Cursor() = default;
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;
    Cursor(Cursor&&) = default;
    Cursor& operator=(Cursor&&) = default;

    /// Grow-only rows for a caller that hands only some lanes of a pooled
    /// search on to max_param_for_budget_from_batch (core::SolverCache's
    /// memo gathers its misses here).  No LoweredProblem method reads them.
    struct LaneGather {
      std::vector<std::uint32_t> lane;
      std::vector<double> from;
      std::vector<double> budget;
      std::vector<BatchPoint> at;
      std::vector<double> out;
    };
    LaneGather gather;

   private:
    friend class LoweredProblem;
    std::vector<double> finish_;  ///< num_vertices x widest lanes run, SoA
    std::vector<double> slope_;
    /// Winning in-slot per topo position (dense solves, one lane).
    std::vector<std::uint32_t> arg_slot_;
    /// Candidate rows of the vertex currently being maximized (ranged and
    /// dense passes): max_in_degree x widest lanes run, values and slopes.
    std::vector<double> cand_val_;
    std::vector<double> cand_slope_;
    /// Pooled budget-search state (max_param_for_budget_from_batch), one
    /// entry per lane of the call: bracket, eps and flat run by lane index;
    /// the live lanes, their probe points and their evaluations in gathered
    /// order.
    std::vector<BudgetBracket> search_;
    std::vector<std::uint32_t> search_live_;
    std::vector<double> search_x_;
    std::vector<BatchPoint> search_pts_;
    /// The last dense solve; chain_sink is kNoIndex before the first.
    AnchorState last_;
  };

  /// Batched forward pass: evaluate parameter `active` at xs[0..n) — one
  /// independent scenario per lane, any order, any n — writing n entries to
  /// `out`.  Lanes are processed in blocks of kBatchWidth (tails in
  /// last_pow2-sized sub-blocks), the per-edge cost accumulators run
  /// structure-of-arrays over the lane axis with a fixed block-synchronous
  /// reduction order, and every lane performs the 1-lane pass's
  /// floating-point operations exactly — so out[i].value is bitwise
  /// identical to solve(active, xs[i]) at every lane, and out[i].slope too
  /// on integer-coefficient spaces (see BatchPoint; the batch equivalence
  /// wall in test_solver_hotpath.cpp pins this across apps, spaces, and
  /// block boundaries).  This variant skips the basis-range envelope;
  /// out[i].lo/hi are left at -inf/+inf.  Steady state allocates nothing.
  void solve_batch(int active, const double* xs, std::size_t n,
                   Cursor& cur, BatchPoint* out) const;

  /// Same pass with the upper-envelope bookkeeping enabled: out[i].lo/hi
  /// additionally match solve(active, xs[i]).lo/hi bitwise.  Costs one
  /// extra candidate-buffer sweep per multi-predecessor vertex; use the
  /// plain variant when only values and slopes are consumed.
  void solve_batch_ranges(int active, const double* xs, std::size_t n,
                          Cursor& cur, BatchPoint* out) const;

  /// Pooled tolerance search: on integer-coefficient spaces (see
  /// BatchPoint) out[i] is bitwise identical to
  /// max_param_for_budget_from(k, from[i], budget[i], cur) for every lane,
  /// including the boundary clamps and the LpError conditions (an
  /// infeasible lane throws exactly the single search's error, lowest lane
  /// of the whole call first).  All n lanes iterate the single search's
  /// bracketed-Newton step in one lockstep: each round gathers only the
  /// still-live lanes into one ranged batch pass (kBatchWidth blocks plus
  /// pow2 tails), so n searches cost max-lane-iterations rounds and no
  /// finished lane rides a later pass.  When the caller already holds the
  /// ranged pass at every from[i] (say from a runtime sweep), `at_from`
  /// supplies it and the search opens without re-solving; at_from[i] must
  /// equal solve_batch_ranges at from[i].  Steady state allocates nothing.
  void max_param_for_budget_from_batch(int k, const double* from,
                                       const double* budget, std::size_t n,
                                       Cursor& cur, double* out,
                                       const BatchPoint* at_from = nullptr)
      const;

  /// Evaluate with parameter `active` set to `value` and all others at
  /// their base values, reusing `cur` for all scratch state.  The returned
  /// reference lives in `cur` and is invalidated by the next solve through
  /// the same cursor.  Steady state performs no heap allocations.
  const Solution& solve(int active, double value, Cursor& cur) const;
  /// Convenience form that allocates a transient cursor.
  Solution solve(int active, double value) const;
  /// Evaluate at the base point (active parameter 0).
  Solution solve() const;

  /// One linear piece of T(x_active).
  struct Segment {
    double lo = 0.0;
    double hi = 0.0;
    double slope = 0.0;     ///< λ on this piece
    double value_at_lo = 0.0;
  };

  /// The exact piecewise-linear T over [lo, hi] for parameter k, assembled
  /// by a left-to-right walk hopping across feasibility ranges (the exact
  /// version of Algorithm 2).  Adjacent pieces with equal slope are merged,
  /// so piece boundaries are precisely the critical latencies L_c.
  std::vector<Segment> piecewise(int k, double lo, double hi) const;
  std::vector<Segment> piecewise(int k, double lo, double hi,
                                 Cursor& cur) const;

  /// Critical latencies within [lo, hi]: the parameter values where λ
  /// changes (Algorithm 2's output list), derived from the exact piecewise
  /// curve.
  std::vector<double> critical_values(int k, double lo, double hi) const;
  std::vector<double> critical_values(int k, double lo, double hi,
                                      Cursor& cur) const;

  /// Faithful port of the paper's Algorithm 2 (Appendix D): scan the
  /// interval right-to-left, hopping to SALBLow − ε after each solve and
  /// recording a critical latency whenever the reduced cost (λ) changes.
  /// `step` is the paper's resolution knob: the scan always advances by at
  /// least `step`, trading completeness for bounded work exactly like the
  /// pseudocode.  With step = 0 the result matches critical_values()
  /// (ascending order); larger steps may skip closely-spaced breakpoints.
  /// Throws LpError, before any solve, on a non-finite lo/hi/step, a
  /// negative step, lo > hi, or eps <= 0.
  std::vector<double> critical_values_algorithm2(int k, double lo, double hi,
                                                 double step = 0.0,
                                                 double eps = 1e-6) const;

  /// §II-D2 tolerance: the largest value of parameter k (>= its base value)
  /// keeping T <= budget.  Returns +inf when the parameter never appears on
  /// a critical path up to the budget or the budget is +inf; throws LpError
  /// if even the base value exceeds the budget.
  double max_param_for_budget(int k, double budget) const;
  double max_param_for_budget(int k, double budget, Cursor& cur) const;
  /// Same search anchored at `from` instead of the space's base value (the
  /// Monte Carlo engine's per-sample operating points sit off-base).
  ///
  /// Boundary contract (pinned by tests): throws LpError iff
  /// T(from) > budget + value_eps(budget); otherwise the result is always
  /// >= `from`, even when the budget sits inside the fuzzy feasibility band
  /// at `from` itself (T(from) in (budget, budget + eps] clamps to `from`
  /// rather than extrapolating a negative tolerance).  When the budget
  /// exactly ties a segment knot T(L_c) == budget, the crossing returned is
  /// the tangent solution of the piece that reaches it — a fixed value
  /// independent of the cursor's prior state, so warm and cold paths agree
  /// bitwise.
  double max_param_for_budget_from(int k, double from, double budget,
                                   Cursor& cur) const;
  /// Same search opening from the caller's solve at `from`
  /// (solve(k, from).point()) instead of solving there again.
  double max_param_for_budget_from(int k, double from, double budget,
                                   const BatchPoint& at_from,
                                   Cursor& cur) const;

  /// One evaluated point of a segment-walk sweep.
  struct SweepEval {
    double at = 0.0;     ///< evaluated value of the active parameter
    double value = 0.0;  ///< T at that point
    double slope = 0.0;  ///< λ = ∂T/∂x_k at that point
  };

  /// Evaluate T and λ at every value of `xs`, in any order, for parameter
  /// k as a segment walk: a point inside the current anchor's stability
  /// zone is evaluated by replaying the anchor solve's critical path, which
  /// reproduces the dense forward pass's floating-point sums operation for
  /// operation; any other point (beyond the zone, or below the anchor) gets
  /// a full forward pass and becomes the new anchor.  Results are therefore
  /// bitwise identical to calling solve(k, x) at every point; an ascending
  /// grid costs O(#pieces hit) instead of O(#points) passes.  (Near-ties
  /// split the λ-segments of piecewise() into finer basis pieces, so the
  /// pass count lies between the segment count and the point count.)
  /// Writes xs.size() entries to `out`.  Throws LpError on a NaN x.
  void sweep(int k, std::span<const double> xs, Cursor& cur,
             SweepEval* out) const;
  std::vector<SweepEval> sweep(int k, std::span<const double> xs) const;

  /// Snapshot the cursor's last anchor solve into `out` (reusing its
  /// buffers).  Requires a prior solve through `cur` on this problem.
  void save_anchor(const Cursor& cur, AnchorState& out) const;

  /// Warm entry point: T and λ at `x` for parameter k served from a saved
  /// anchor, bitwise identical to solve(k, x) (the segment-walk replay
  /// equivalence, pinned by the hot-path test wall).  Read-only on both the
  /// problem and the anchor — safe to call concurrently from any number of
  /// threads with no cursor at all.  Either lowering replays.  Requires
  /// anchor.covers(k, x) and an anchor saved from *this* problem; throws
  /// LpError when the anchor does not cover x.
  SweepEval replay_anchor(const AnchorState& anchor, int k, double x) const;

 private:
  /// What one forward pass computes: values and slopes only; also the
  /// basis range; or, on one lane, the dense solve — the range, the
  /// stability bound, each position's winning slot and the critical sink,
  /// left in the cursor's anchor for the chain walk.
  enum class Pass { kValues, kRanges, kDense };

  /// Calls f with the active lowering's W-lane edge-cost functor.
  template <std::size_t W, typename F>
  decltype(auto) with_lane_cost(int active, F&& f) const;
  /// The W-lane forward pass (src/lp/batch.cpp), the one kernel behind
  /// every solve; LaneCost is the flat/CSR edge-cost flavor.
  template <std::size_t W, Pass P, typename LaneCost>
  void batch_pass(const LaneCost& cost, const double* xs, Cursor& cur,
                  BatchPoint* out) const;
  /// Runs the pass at xs[0..n) in kBatchWidth blocks and pow2 tails.
  template <Pass P>
  void run_pass(int active, const double* xs, std::size_t n, Cursor& cur,
                BatchPoint* out) const;
  /// One bracketed-Newton iteration of the budget search, shared by the
  /// per-call and pooled searches: consumes T's evaluation `pt` at `x` and
  /// either finishes (returns true with `result`) or moves `x` to the next
  /// probe, tightening the bracket.
  static bool budget_step(const BatchPoint& pt, double from, double budget,
                          BudgetBracket& b, double& x, double& result);
  /// Throws the tolerance LpError when T(from) already exceeds `budget`.
  static void check_budget(double from, double value, double budget);
  /// Grow cur's rows to the widest sub-block of an n-lane call.
  void prepare_batch(Cursor& cur, std::size_t n) const;
  /// Dense solve into cur: the 1-lane kDense pass, then the chain walk
  /// (gradient, messages, critical path).
  void solve_into(int active, double value, Cursor& cur) const;
  /// The Params constructor's body: keeps the mutable handle relower uses.
  LoweredProblem(std::shared_ptr<LatencyParamSpace> space,
                 const graph::Graph& g);

  const graph::Graph& g_;
  std::shared_ptr<const ParamSpace> space_;
  /// space_ itself when this problem may be re-lowered, else null.
  LatencyParamSpace* relowerable_ = nullptr;
  int num_params_ = 0;

  // Everything below shares the graph's topo-slot index space (see the
  // class comment): the forward pass streams it sequentially.  Pure
  // layout: every value and every visit order matches the seed's
  // graph-driven walk.
  std::vector<double> vertex_cost_topo_;  ///< topo pos -> vertex cost

  // CSR lowering of the per-edge Affine terms by slot, preserving term
  // order (and therefore the seed's floating-point summation order).
  // Released once the flat lowering below is built from it.
  std::vector<std::uint32_t> term_offsets_;  ///< slot -> [first, last) term
  std::vector<std::int32_t> term_param_;
  std::vector<double> term_coeff_;
  std::vector<double> edge_const_;           ///< by slot

  // Flat per-active-parameter lowering, built when every edge has at most
  // one term and the space is small: flat_const_slot_/flat_slope_slot_
  // [k * E + j] for slot j.  Slot j's coefficient on parameter k is
  // flat_slope_slot_[k * E + j] (0 when j has no term on k), which is all
  // the chain walk's gradient needs.
  bool flat_ = false;
  std::vector<double> flat_const_slot_;
  std::vector<double> flat_slope_slot_;

  std::vector<double> base_;
};

}  // namespace llamp::lp
