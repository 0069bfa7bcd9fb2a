#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "loggops/params.hpp"

namespace llamp::lp {

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
/// tolerance search relies on it), and spaces whose edges carry at most
/// one term each (LatencyParamSpace, the wire-latency space) get the
/// fastest per-parameter flat lowering.
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
  loggops::Params p_;
};

/// Two decision variables: latency L (param 0) and gap-per-byte G (param 1).
/// Its dense solve's gradient[1] at G is λ_G by definition; the tests use it
/// as the reference for the critical-path sum the analyzer reports, and as
/// a multi-term (CSR-lowered) space.
class LatencyBandwidthParamSpace final : public ParamSpace {
 public:
  explicit LatencyBandwidthParamSpace(loggops::Params p) : p_(p) {
    p_.validate();
  }

  int num_params() const override { return 2; }
  std::string param_name(int k) const override { return k == 0 ? "l" : "G"; }
  double base_value(int k) const override { return k == 0 ? p_.L : p_.G; }
  Affine edge_cost(const graph::Graph& g, const graph::Edge& e) const override;
  const loggops::Params& params() const override { return p_; }

 private:
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

/// Perturbed-evaluation hook for the stochastic (Monte Carlo) analyses:
/// wraps another space and scales every edge's whole affine cost — constant
/// and parametric terms alike — by a per-edge factor.  Because a
/// multiplicative factor keeps an affine expression affine, the full
/// LoweredProblem feature set (solve, sweep, piecewise, tolerance search)
/// works on a perturbed space unchanged; one problem lowered over a
/// PerturbedParamSpace *is* one perturbed LP evaluation.
///
/// Factors are indexed by edge id (the position of the edge in g.edges())
/// and must be finite and >= 0 — edge costs stay monotone in every
/// parameter, which the tolerance search relies on.  A factor of exactly
/// 1.0 leaves the edge's lowered terms bitwise identical to the base
/// space's (x * 1.0 == x), so an all-ones perturbation reproduces the
/// deterministic analysis bit for bit; the Stoch tests pin this.
class PerturbedParamSpace final : public ParamSpace {
 public:
  /// `edge_factor.size()` must equal the edge count of every graph this
  /// space is used with; the mismatch is caught at edge_cost time.
  PerturbedParamSpace(std::shared_ptr<const ParamSpace> base,
                      std::vector<double> edge_factor);

  int num_params() const override { return base_->num_params(); }
  std::string param_name(int k) const override {
    return base_->param_name(k);
  }
  double base_value(int k) const override { return base_->base_value(k); }
  Affine edge_cost(const graph::Graph& g, const graph::Edge& e) const override;
  const loggops::Params& params() const override { return base_->params(); }

 private:
  std::shared_ptr<const ParamSpace> base_;
  std::vector<double> edge_factor_;
};

/// Topology analysis: the end-to-end latency between two ranks decomposes
/// into counts of "link classes" (e.g. one class `l_wire` for Fat Tree with
/// (h+1) wires per route, or {l_tc, l_intra, l_inter} for Dragonfly) plus a
/// constant per-route term (switch traversals).  The classes are the
/// decision variables.
class LinkClassParamSpace final : public ParamSpace {
 public:
  struct Route {
    /// count[c] = how many class-c links the route crosses.
    std::vector<double> counts;
    /// Fixed additive latency (switch delays etc.).
    double constant = 0.0;
  };

  LinkClassParamSpace(loggops::Params p, std::vector<std::string> class_names,
                      std::vector<double> class_base_values,
                      std::vector<Route> routes_by_pair, int nranks);

  int num_params() const override {
    return static_cast<int>(names_.size());
  }
  std::string param_name(int k) const override {
    return names_[static_cast<std::size_t>(k)];
  }
  double base_value(int k) const override {
    return base_[static_cast<std::size_t>(k)];
  }
  Affine edge_cost(const graph::Graph& g, const graph::Edge& e) const override;
  const loggops::Params& params() const override { return p_; }

 private:
  const Route& route(int src, int dst) const;

  loggops::Params p_;
  std::vector<std::string> names_;
  std::vector<double> base_;
  std::vector<Route> routes_;  // row-major nranks x nranks
  int nranks_;
};

}  // namespace llamp::lp
