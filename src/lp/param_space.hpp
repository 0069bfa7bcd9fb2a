#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "loggops/params.hpp"

namespace llamp::lp {

class LoweredProblem;

/// One linear term coeff·x_param of an edge-cost expression.
struct ParamTerm {
  int param = 0;
  double coeff = 0.0;
};

/// An affine function constant + Σ coeff_k · x_k over the decision
/// parameters of a ParamSpace.
///
/// Lowering contract (see DESIGN.md §4b): LoweredProblem flattens these
/// expressions at construction and replicates the term list's *order* in
/// its floating-point summations, so `terms` order is part of a space's
/// observable behavior — emit terms deterministically.  Coefficients are
/// nonnegative by convention (edge costs are monotone in every parameter;
/// tolerance search relies on it).  A one-parameter space (LatencyParamSpace,
/// the wire-latency space) lowers flat and may emit at most one term per
/// edge; LoweredProblem throws on a second.
struct Affine {
  double constant = 0.0;
  std::vector<ParamTerm> terms;

  double eval(const std::vector<double>& values) const {
    double v = constant;
    for (const ParamTerm& t : terms) {
      v += t.coeff * values[static_cast<std::size_t>(t.param)];
    }
    return v;
  }
};

/// A ParamSpace declares which network quantities are *decision variables*
/// of the analysis and expresses every edge's traversal cost as an affine
/// function of them.  The paper's analyses map to spaces as follows:
///
/// * latency sensitivity/tolerance (§II)        -> LatencyParamSpace (l)
/// * bandwidth sensitivity (§II-B1)             -> LatencyParamSpace too:
///   λ_G sums the G coefficients (bytes − 1) along its critical path
///   (core::LatencyAnalyzer::lambda_G)
/// * per-pair HLogGP sensitivities (Appendix I) -> PairwiseLatencyParamSpace
/// * topology / wire classes (§IV-2, App. H)    -> LinkClassParamSpace
class ParamSpace {
 public:
  virtual ~ParamSpace() = default;

  virtual int num_params() const = 0;
  virtual std::string param_name(int k) const = 0;
  /// Evaluation point / LP lower bound of parameter k (e.g. the measured L).
  virtual double base_value(int k) const = 0;
  /// Edge cost as an affine function of the parameters; the constant part
  /// carries everything non-parametric (o terms, fixed-G payload terms...).
  virtual Affine edge_cost(const graph::Graph& g,
                           const graph::Edge& e) const = 0;

  /// LogGPS vector used for vertex costs (o) and non-parametric terms.
  virtual const loggops::Params& params() const = 0;
};

/// The latency space's cost of edge e at operating point p: the constant
/// o_mult·o + (bytes − 1)·G and the coefficient l_mult on L.  The one home
/// of the formula: LatencyParamSpace::edge_cost and the in-place
/// re-lowering (LoweredProblem::relower) both read it.
struct LatencyEdgeCost {
  double constant = 0.0;
  double l_coeff = 0.0;
};
inline LatencyEdgeCost latency_edge_cost(const graph::Edge& e,
                                         const loggops::Params& p) {
  const double payload =
      e.bytes > 1 ? static_cast<double>(e.bytes - 1) * p.G : 0.0;
  return {static_cast<double>(e.o_mult) * p.o + payload,
          static_cast<double>(e.l_mult)};
}
/// True when e costs exactly 0 at every operating point (no o, L or
/// payload term), so no factor can change its lowered row (0·f = 0).
inline bool carries_no_cost(const graph::Edge& e) {
  return e.o_mult == 0 && e.l_mult == 0 && e.bytes <= 1;
}

/// Single decision variable: the network latency L.  G stays constant.
class LatencyParamSpace final : public ParamSpace {
 public:
  explicit LatencyParamSpace(loggops::Params p) : p_(p) { p_.validate(); }

  int num_params() const override { return 1; }
  std::string param_name(int) const override { return "l"; }
  double base_value(int) const override { return p_.L; }
  Affine edge_cost(const graph::Graph& g, const graph::Edge& e) const override;
  const loggops::Params& params() const override { return p_; }

 private:
  // A re-lowerable problem owns its space alone and moves its operating
  // point along with its costs (LoweredProblem::relower).
  friend class LoweredProblem;
  loggops::Params p_;
};

/// HLogGP: one latency decision variable per unordered rank pair {i, j}
/// (Appendix I), so one solve yields the sensitivity matrix D_L that
/// Algorithm 3 (rank placement) consumes.  The gap is the uniform p.G,
/// folded into each edge's constant.
class PairwiseLatencyParamSpace final : public ParamSpace {
 public:
  /// Uniform base latencies from `p`.
  PairwiseLatencyParamSpace(loggops::Params p, int nranks);
  /// Explicit symmetric latency matrix (row-major nranks x nranks); the
  /// diagonal is ignored.
  PairwiseLatencyParamSpace(loggops::Params p, int nranks,
                            std::vector<double> latency_matrix);

  int nranks() const { return nranks_; }
  int num_pairs() const { return nranks_ * (nranks_ - 1) / 2; }
  /// Parameter index of pair {i, j}, i != j.
  int pair_index(int i, int j) const;

  int num_params() const override { return num_pairs(); }
  std::string param_name(int k) const override;
  double base_value(int k) const override {
    return base_[static_cast<std::size_t>(k)];
  }
  Affine edge_cost(const graph::Graph& g, const graph::Edge& e) const override;
  const loggops::Params& params() const override { return p_; }

 private:
  loggops::Params p_;
  int nranks_;
  std::vector<double> base_;  // per pair index (latency)
};

/// Topology analysis: the end-to-end latency between two ranks decomposes
/// into counts of "link classes" (e.g. one class `l_wire` for Fat Tree with
/// (h+1) wires per route, or {l_tc, l_intra, l_inter} for Dragonfly) plus a
/// constant per-route term (switch traversals).  The classes are the
/// decision variables.  Routes are plain tables over ordered rank pairs,
/// pair = src·nranks + dst: `counts` holds nranks² rows of one count per
/// class (how many class-c links the route crosses), `constants` one fixed
/// additive latency (switch delays etc.) per pair.
class LinkClassParamSpace final : public ParamSpace {
 public:
  /// Throws LpError unless there is one base value per class name,
  /// `constants` holds nranks² entries and `counts` nranks² × classes.
  LinkClassParamSpace(loggops::Params p, std::vector<std::string> class_names,
                      std::vector<double> class_base_values,
                      std::vector<double> counts,
                      std::vector<double> constants, int nranks);

  int num_params() const override {
    return static_cast<int>(names_.size());
  }
  std::string param_name(int k) const override {
    return names_[static_cast<std::size_t>(k)];
  }
  double base_value(int k) const override {
    return base_[static_cast<std::size_t>(k)];
  }
  /// Throws LpError when a costed edge's wire pair lies outside nranks.
  Affine edge_cost(const graph::Graph& g, const graph::Edge& e) const override;
  const loggops::Params& params() const override { return p_; }

 private:
  loggops::Params p_;
  std::vector<std::string> names_;
  std::vector<double> base_;
  std::vector<double> counts_;     // nranks² x classes, row-major by pair
  std::vector<double> constants_;  // nranks², by pair
  int nranks_;
};

}  // namespace llamp::lp
