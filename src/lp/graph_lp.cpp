#include "lp/graph_lp.hpp"

#include <map>

#include "graph/costs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::lp {

namespace {

/// Affine expression over (one anchor y variable, parameters): the running
/// Tv[v] of Algorithm 1.
struct Expr {
  int y = -1;  ///< -1 when anchored at time zero
  double constant = 0.0;
  std::map<int, double> coeffs;  ///< parameter -> coefficient

  void add(const Affine& a) {
    constant += a.constant;
    for (const ParamTerm& t : a.terms) coeffs[t.param] += t.coeff;
  }
};

}  // namespace

GraphLp build_graph_lp(const graph::Graph& g, const ParamSpace& space) {
  if (!g.finalized()) throw LpError("graph must be finalized");
  GraphLp out;
  Model& m = out.model;
  m.set_sense(Sense::kMinimize);

  for (int k = 0; k < space.num_params(); ++k) {
    out.param_vars.push_back(
        m.add_var(space.param_name(k), space.base_value(k), kInf, 0.0));
  }
  out.makespan_var = m.add_var("t", -kInf, kInf, 1.0);

  const loggops::Params& p = space.params();
  std::vector<Expr> expr(g.num_vertices());

  const auto emit_ge = [&](int y, const Expr& rhs) {
    // y >= rhs.y + rhs.constant + Σ coeff·param
    std::vector<std::pair<int, double>> terms;
    terms.emplace_back(y, 1.0);
    if (rhs.y >= 0) terms.emplace_back(rhs.y, -1.0);
    for (const auto& [param, c] : rhs.coeffs) {
      if (c != 0.0) {
        terms.emplace_back(out.param_vars[static_cast<std::size_t>(param)], -c);
      }
    }
    m.add_constraint(std::move(terms), Relation::kGe, rhs.constant);
  };

  const auto topo = g.topo_order();
  const graph::Graph::TopoSlots& ts = g.topo_slots();
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const std::uint32_t jlo = ts.offsets[i];
    const std::uint32_t jhi = ts.offsets[i + 1];
    Expr e;
    if (jlo == jhi) {
      // Starting vertex: anchored at time zero.
    } else if (jhi - jlo == 1) {
      const graph::Edge& in = g.edge(ts.edge[jlo]);
      e = expr[in.from];
      e.add(space.edge_cost(g, in));
    } else {
      const int y = m.add_var(strformat("y%u", topo[i]), -kInf, kInf, 0.0);
      for (std::uint32_t j = jlo; j < jhi; ++j) {
        const graph::Edge& in = g.edge(ts.edge[j]);
        Expr rhs = expr[in.from];
        rhs.add(space.edge_cost(g, in));
        emit_ge(y, rhs);
      }
      e = Expr{};
      e.y = y;
    }
    e.constant += graph::vertex_cost(g.vertex(topo[i]), p);
    expr[topo[i]] = std::move(e);
  }

  // t dominates every sink's completion expression.
  for (const std::uint32_t pos : ts.sinks) {
    emit_ge(out.makespan_var, expr[topo[pos]]);
  }
  return out;
}

Model make_tolerance_model(const GraphLp& lp, int param, double budget) {
  if (param < 0 || param >= static_cast<int>(lp.param_vars.size())) {
    throw LpError("tolerance model: parameter index out of range");
  }
  Model m = lp.model;
  m.set_sense(Sense::kMaximize);
  m.set_objective(lp.makespan_var, 0.0);
  m.set_objective(lp.param_vars[static_cast<std::size_t>(param)], 1.0);
  m.set_var_upper(lp.makespan_var, budget);
  return m;
}

}  // namespace llamp::lp
