#pragma once

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
/// Relative tolerance for value comparisons (times are O(1e10) ns).  Shared
/// by the scalar forward pass (parametric.cpp) and the batched kernel
/// (batch.cpp), which must break near-ties identically for the batch
/// bitwise-equivalence contract to hold.
inline double value_eps(double v) { return 1e-9 * (1.0 + std::fabs(v)); }
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
/// Ownership split (DESIGN.md §4e): a LoweredProblem is the *immutable*
/// half of a solver — the CSR/SoA cost arrays, topo permutation, and base
/// point lowered once at construction.  After construction every method is
/// const and touches only caller-owned scratch, so one LoweredProblem may
/// be shared freely across threads and cached across requests (see
/// core::SolverCache).  The mutable half is the per-query Cursor below; the
/// bridge between queries is the AnchorState snapshot, which replays
/// bitwise-identically to a dense solve inside its stability zone.
///
/// Hot-path layout (see DESIGN.md §"Solver internals"): at construction the
/// ParamSpace's per-edge Affine expressions are lowered into flat
/// structure-of-arrays storage.  When every edge carries at most one
/// parametric term and the space is small (LatencyParamSpace, the shared
/// wire-latency space), each activatable parameter additionally gets a
/// per-edge (constant, slope) pair with every inactive parameter folded in,
/// so evaluating an edge is two contiguous loads and one multiply-add.  The
/// general CSR term walk remains as the multi-parameter fallback
/// (PairwiseLatencyParamSpace, multi-term link-class edges).  Both paths
/// replicate the seed implementation's floating-point operation order
/// exactly, so results are bit-for-bit identical to the original per-edge
/// heap-vector walk.
class LoweredProblem {
 public:
  LoweredProblem(const graph::Graph& g,
                 std::shared_ptr<const ParamSpace> space);
  /// The problem keeps a reference; a temporary graph would dangle.
  LoweredProblem(graph::Graph&&, std::shared_ptr<const ParamSpace>) = delete;
  LoweredProblem(const LoweredProblem&) = delete;
  LoweredProblem& operator=(const LoweredProblem&) = delete;

  const ParamSpace& space() const { return *space_; }
  std::shared_ptr<const ParamSpace> space_ptr() const { return space_; }
  const graph::Graph& graph() const { return g_; }
  int num_params() const { return num_params_; }
  /// True when the per-active-parameter flat lowering is in effect (every
  /// edge has at most one term, small space).  Anchor replay without a
  /// cursor — replay_anchor() — requires it.
  bool flat() const { return flat_; }

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
  };

  /// The mutable per-query half of a solver: the forward-pass arrays, the
  /// cached basis (critical path + stability bounds) of its last solve, and
  /// a Solution slot that solve(active, value, cur) reuses, so steady-state
  /// solves perform zero heap allocations (buffers grow to the largest
  /// graph/space seen and are then only reused).
  ///
  /// Ownership rules: one cursor per thread.  A cursor may be shared
  /// freely across LoweredProblem instances and scenarios — every solve
  /// rewrites all state it reads — but never across concurrent callers.
  class Cursor {
   public:
    Cursor() = default;
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;
    Cursor(Cursor&&) = default;
    Cursor& operator=(Cursor&&) = default;

   private:
    friend class LoweredProblem;
    std::vector<double> finish_;
    std::vector<double> slope_;
    std::vector<std::uint32_t> arg_edge_;
    /// (value, slope) candidates of the vertex currently being maximized.
    std::vector<std::pair<double, double>> cands_;
    /// Evaluation point for the CSR fallback (base values + active).
    std::vector<double> point_;
    /// Critical-path edges of the last solve, source -> sink order.
    std::vector<std::uint32_t> chain_;
    graph::VertexId chain_src_ = graph::kInvalidVertex;
    /// Absolute active-parameter bound below which the last solve's basis
    /// is provably re-selected by a dense pass (stability zone for the
    /// segment walk's critical-path replay; always <= solution_.hi).
    double stable_hi_ = -std::numeric_limits<double>::infinity();
    Solution solution_;
  };

  /// One lane of a batched forward pass: T, the active slope, and (when
  /// requested) the active parameter's feasibility range at that lane's
  /// evaluation point.  Every field is bitwise identical to the matching
  /// member of solve(active, x).{value, gradient[active], lo, hi}.
  struct BatchPoint {
    double value = 0.0;
    double slope = 0.0;
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
  };

  /// Scratch for the batched forward pass: the per-vertex finish/slope
  /// accumulators laid out structure-of-arrays over the sample axis
  /// (finish_[pos * width + lane]) plus the candidate buffer the range
  /// variant replays the envelope bookkeeping from.  Same ownership rules
  /// as Cursor: one per thread, shareable across problems, buffers only
  /// grow — steady-state batch solves perform zero heap allocations.
  class BatchCursor {
   public:
    BatchCursor() = default;
    BatchCursor(const BatchCursor&) = delete;
    BatchCursor& operator=(const BatchCursor&) = delete;
    BatchCursor(BatchCursor&&) = default;
    BatchCursor& operator=(BatchCursor&&) = default;

   private:
    friend class LoweredProblem;
    std::vector<double> finish_;  ///< num_vertices x widest lanes run, SoA
    std::vector<double> slope_;
    /// Candidate rows of the vertex currently being maximized (range
    /// variant only): max_in_degree x widest lanes run, values and slopes.
    std::vector<double> cand_val_;
    std::vector<double> cand_slope_;
    /// Lockstep budget-search lane state (max_param_for_budget_from_batch).
    std::vector<double> search_x_;
    std::vector<BatchPoint> search_pts_;
  };

  /// Batched forward pass: evaluate parameter `active` at xs[0..n) — one
  /// independent scenario per lane, any order, any n — writing n entries to
  /// `out`.  Lanes are processed in blocks of kBatchWidth (tails in
  /// last_pow2-sized sub-blocks), the per-edge cost accumulators run
  /// structure-of-arrays over the lane axis with a fixed block-synchronous
  /// reduction order, and every per-lane floating-point operation replays
  /// the scalar pass exactly — so out[i].{value, slope} is bitwise
  /// identical to solve(active, xs[i]) at every lane (the batch equivalence
  /// wall in test_solver_hotpath.cpp pins this across apps, spaces, and
  /// block boundaries).  This variant skips the basis-range envelope;
  /// out[i].lo/hi are left at -inf/+inf.  Steady state allocates nothing.
  void solve_batch(int active, const double* xs, std::size_t n,
                   BatchCursor& cur, BatchPoint* out) const;

  /// Same pass with the upper-envelope bookkeeping enabled: out[i].lo/hi
  /// additionally match solve(active, xs[i]).lo/hi bitwise.  Costs one
  /// extra candidate-buffer sweep per multi-predecessor vertex; use the
  /// plain variant when only values and slopes are consumed.
  void solve_batch_ranges(int active, const double* xs, std::size_t n,
                          BatchCursor& cur, BatchPoint* out) const;

  /// Lockstep batched tolerance search: out[i] is bitwise identical to
  /// max_param_for_budget_from(k, from[i], budget[i], cur) for every lane,
  /// including the boundary clamps and the LpError conditions (an
  /// infeasible lane throws exactly the scalar error, lowest lane first).
  /// Lanes iterate the scalar bracketed-Newton logic in lockstep, each
  /// iteration served by one ranged batch pass, so a block of n searches
  /// costs max-lane-iterations passes instead of sum-over-lanes solves.
  void max_param_for_budget_from_batch(int k, const double* from,
                                       const double* budget, std::size_t n,
                                       BatchCursor& cur, double* out) const;

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
  /// a critical path up to the budget; throws LpError if even the base
  /// value exceeds the budget.
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

  /// One evaluated point of a segment-walk sweep.
  struct SweepEval {
    double at = 0.0;     ///< evaluated value of the active parameter
    double value = 0.0;  ///< T at that point
    double slope = 0.0;  ///< λ = ∂T/∂x_k at that point
  };

  /// Work counters of one sweep() call (perf observability: the benchmark
  /// harness records anchor_solves per sweep in BENCH_solver.json).
  struct SweepStats {
    std::size_t anchor_solves = 0;  ///< full forward passes performed
    std::size_t replays = 0;        ///< points served by chain replay
  };

  /// Evaluate T and λ at every value of `xs` (which must be ascending) for
  /// parameter k in a single left-to-right segment walk: one full forward
  /// pass per linear piece of the solver's basis structure, advancing from
  /// each solve's breakpoint; points interior to a piece are evaluated by
  /// replaying the anchor solve's critical path, which reproduces the dense
  /// forward pass's floating-point sums operation for operation.  Results
  /// are therefore bitwise identical to calling solve(k, x) at every
  /// point, at a cost of O(#pieces hit) instead of O(#points) passes.
  /// (Near-ties split the λ-segments of piecewise() into finer basis
  /// pieces, so the pass count lies between the segment count and the point
  /// count.)  Writes xs.size() entries to `out`.  Throws LpError on
  /// descending xs.
  void sweep(int k, std::span<const double> xs, Cursor& cur,
             SweepEval* out, SweepStats* stats = nullptr) const;
  std::vector<SweepEval> sweep(int k, std::span<const double> xs) const;

  /// A detached snapshot of one anchor solve: the solution, the critical
  /// path it selected, and the stability zone on which a dense re-solve
  /// provably re-selects that basis.  This is the unit core::SolverCache
  /// stores — an anchor saved by one request serves later requests (and
  /// other threads) through replay_anchor() without touching any cursor.
  struct AnchorState {
    Solution solution;
    std::vector<std::uint32_t> chain;  ///< critical path, source -> sink
    graph::VertexId chain_src = graph::kInvalidVertex;
    /// Absolute bound below which a dense pass re-selects this basis.
    double stable_hi = -std::numeric_limits<double>::infinity();

    /// True when replay_anchor(*this, k, x) is valid: same active
    /// parameter, and x at the anchor point or inside its stability zone.
    bool covers(int k, double x) const {
      return solution.active == k &&
             (x == solution.at || (x > solution.at && x < stable_hi));
    }
  };

  /// Snapshot the cursor's last anchor solve into `out` (reusing its
  /// buffers).  Requires a prior solve through `cur` on this problem.
  void save_anchor(const Cursor& cur, AnchorState& out) const;

  /// Warm entry point: T and λ at `x` for parameter k served from a saved
  /// anchor, bitwise identical to solve(k, x) (the segment-walk replay
  /// equivalence, pinned by the hot-path test wall).  Read-only on both the
  /// problem and the anchor — safe to call concurrently from any number of
  /// threads with no cursor at all.  Requires anchor.covers(k, x), an
  /// anchor saved from *this* problem, and the flat lowering (flat());
  /// throws LpError otherwise.
  SweepEval replay_anchor(const AnchorState& anchor, int k, double x) const;

 private:
  struct FlatEdgeAt;
  struct CsrEdgeAt;

  template <typename EdgeAt>
  void forward_pass(int active, double value, Cursor& cur,
                    const EdgeAt& edge_at) const;
  /// The W-lane batched pass (src/lp/batch.cpp); Range selects the
  /// envelope bookkeeping, LaneCost the flat/CSR edge-cost flavor.
  template <std::size_t W, bool Range, typename LaneCost>
  void batch_pass(const LaneCost& cost, const double* xs,
                  BatchCursor& cur, BatchPoint* out) const;
  template <bool Range>
  void solve_batch_impl(int active, const double* xs, std::size_t n,
                        BatchCursor& cur, BatchPoint* out) const;
  /// Grow cur's rows to the widest sub-block of an n-lane call.
  void prepare_batch(BatchCursor& cur, std::size_t n) const;
  /// Dense solve into cur (solution, chain, stability bound).
  void solve_into(int active, double value, Cursor& cur) const;
  /// T at `x` via the cached critical path of cur's last solve.  Only valid
  /// for cur.solution_.at <= x < cur.stable_hi_.
  double replay(int active, double x, Cursor& cur) const;
  /// Flat-lowering chain re-sum shared by replay() and replay_anchor().
  double replay_flat(std::span<const std::uint32_t> chain,
                     graph::VertexId chain_src, int active, double x) const;
  void prepare(Cursor& cur) const;

  const graph::Graph& g_;
  std::shared_ptr<const ParamSpace> space_;
  int num_params_ = 0;
  std::uint32_t max_in_degree_ = 0;

  // CSR lowering of the per-edge Affine terms, preserving term order (and
  // therefore the seed's floating-point summation order) exactly.
  std::vector<std::uint32_t> term_offsets_;  ///< edge -> [first, last) term
  std::vector<std::int32_t> term_param_;
  std::vector<double> term_coeff_;
  std::vector<double> edge_const_;

  // Flat per-active-parameter lowering, built when every edge has at most
  // one term and the space is small: flat_const_/flat_slope_[k * E + e]
  // (edge-id indexed; used by critical-path replay).
  bool flat_ = false;
  std::vector<double> flat_const_;
  std::vector<double> flat_slope_;

  // Topo-permuted adjacency so the forward pass streams memory
  // sequentially: vertices are visited by topo position i, their in-edges
  // occupy the contiguous slot range [in_off_[i], in_off_[i+1]), and the
  // flat cost arrays are additionally permuted into slot order
  // (flat_const_slot_/flat_slope_slot_[k * E + j]).  Pure layout: every
  // value and every visit order matches the seed's graph-driven walk.
  std::vector<std::uint32_t> in_off_;      ///< topo pos -> slot range
  std::vector<std::uint32_t> in_other_;    ///< slot -> predecessor topo pos
  std::vector<std::uint32_t> in_edge_;     ///< slot -> edge id
  std::vector<double> vertex_cost_topo_;   ///< topo pos -> vertex cost
  std::vector<std::uint32_t> topo_pos_;    ///< vertex id -> topo pos
  std::vector<std::uint32_t> sink_pos_;    ///< sinks by ascending vertex id
  std::vector<double> flat_const_slot_;
  std::vector<double> flat_slope_slot_;

  std::vector<double> vertex_cost_;  ///< vertex-id indexed (replay)
  std::vector<double> base_;
};

}  // namespace llamp::lp
