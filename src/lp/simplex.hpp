#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace llamp::lp {

struct SimplexInternal;  // post-solve state for ranging (see simplex.cpp)

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

std::string to_string(SolveStatus s);

/// Solution of a linear program, including the post-optimal sensitivity
/// information LLAMP relies on: reduced costs (λ_L is the reduced cost of
/// the latency variable, §II-D1) and bound ranging (the `SALBLow`-style
/// feasibility ranges driving Algorithm 2).
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;             ///< primal values per model variable
  std::vector<double> reduced_cost;  ///< per model variable, in the model's
                                     ///< original min/max orientation
  std::vector<double> dual;          ///< per constraint (y), min orientation
  std::vector<bool> basic;           ///< per model variable
  std::vector<double> row_activity;  ///< a_i'x per constraint
  std::size_t iterations = 0;

  /// Opaque factorization snapshot consumed by SimplexSolver::bound_range.
  std::shared_ptr<const SimplexInternal> internal;

  /// A constraint is tight if its activity equals its rhs (within tol);
  /// tight constraints correspond to critical-path edges (§II-D1).
  bool tight(const Model& m, int row, double tol = 1e-6) const;
};

/// Bounded-variable two-phase revised simplex with a dense explicit basis
/// inverse.  Intended for models up to a few thousand constraints — the
/// running example, topology studies, unit tests, and cross-validation of
/// the parametric solver.  Large execution-graph LPs (millions of rows) are
/// solved by the exact LoweredProblem instead; DESIGN.md §1 documents this
/// division of labor relative to the paper's use of Gurobi.
class SimplexSolver {
 public:
  struct Config {
    double tol = 1e-7;            ///< pivot / optimality tolerance
    std::size_t max_iterations = 200'000;
    std::size_t degenerate_before_bland = 40;  ///< anti-cycling trigger
  };

  SimplexSolver() = default;
  explicit SimplexSolver(Config cfg) : cfg_(cfg) {}

  Solution solve(const Model& m) const;

  /// Post-optimal ranging of a variable's value: the interval over which the
  /// variable could move (all other nonbasic variables fixed) while every
  /// basic variable stays within its bounds — i.e. the current basis stays
  /// primal feasible.  For a nonbasic variable sitting at its lower bound,
  /// the interval's ends are exactly Gurobi's SALBLow/SALBUp attributes used
  /// by Algorithm 2.  Must be called with the Solution returned by solve()
  /// for the same model.
  struct Range {
    double lo = -kInf;
    double hi = kInf;
  };
  Range bound_range(const Model& m, const Solution& s, int var) const;

 private:
  Config cfg_{};
};

}  // namespace llamp::lp
