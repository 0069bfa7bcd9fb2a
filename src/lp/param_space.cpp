#include "lp/param_space.hpp"


#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::lp {

namespace {

double payload_cost(std::uint64_t bytes, double G) {
  return bytes > 1 ? static_cast<double>(bytes - 1) * G : 0.0;
}

}  // namespace

Affine LatencyParamSpace::edge_cost(const graph::Graph&,
                                    const graph::Edge& e) const {
  const LatencyEdgeCost c = latency_edge_cost(e, p_);
  Affine a;
  a.constant = c.constant;
  if (e.l_mult != 0) a.terms.push_back({0, c.l_coeff});
  return a;
}

PairwiseLatencyParamSpace::PairwiseLatencyParamSpace(loggops::Params p,
                                                     int nranks)
    : p_(p), nranks_(nranks) {
  p_.validate();
  if (nranks < 2) throw LpError("pairwise space needs >= 2 ranks");
  const std::size_t pairs =
      static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks - 1) / 2;
  base_.assign(pairs, p.L);
}

PairwiseLatencyParamSpace::PairwiseLatencyParamSpace(
    loggops::Params p, int nranks, std::vector<double> latency_matrix)
    : PairwiseLatencyParamSpace(p, nranks) {
  const auto need = static_cast<std::size_t>(nranks) *
                    static_cast<std::size_t>(nranks);
  if (latency_matrix.size() != need) {
    throw LpError("pairwise space: matrix size mismatch");
  }
  for (int i = 0; i < nranks; ++i) {
    for (int j = i + 1; j < nranks; ++j) {
      const auto ij = static_cast<std::size_t>(i) *
                          static_cast<std::size_t>(nranks) +
                      static_cast<std::size_t>(j);
      const auto ji = static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nranks) +
                      static_cast<std::size_t>(i);
      if (latency_matrix[ij] != latency_matrix[ji]) {
        throw LpError(strformat("pairwise space: matrix must be symmetric "
                                "(pair %d,%d)", i, j));
      }
      base_[static_cast<std::size_t>(pair_index(i, j))] = latency_matrix[ij];
    }
  }
}

int PairwiseLatencyParamSpace::pair_index(int i, int j) const {
  if (i == j || i < 0 || j < 0 || i >= nranks_ || j >= nranks_) {
    throw LpError(strformat("pairwise space: bad pair (%d,%d)", i, j));
  }
  if (i > j) std::swap(i, j);
  // Index into the strictly-upper-triangular enumeration.
  return i * nranks_ - i * (i + 1) / 2 + (j - i - 1);
}

std::string PairwiseLatencyParamSpace::param_name(int k) const {
  // Invert the triangular index for readable names.
  for (int i = 0; i < nranks_; ++i) {
    const int row_start = i * nranks_ - i * (i + 1) / 2;
    const int row_len = nranks_ - i - 1;
    if (k < row_start + row_len) {
      return strformat("l_%d_%d", i, i + 1 + (k - row_start));
    }
  }
  throw LpError("pairwise space: bad parameter index");
}

Affine PairwiseLatencyParamSpace::edge_cost(const graph::Graph& g,
                                            const graph::Edge& e) const {
  Affine a;
  a.constant = static_cast<double>(e.o_mult) * p_.o;
  if (e.l_mult != 0 || e.bytes > 1) {
    const auto [src, dst] = g.edge_wire_pair(e);
    // Local edges carry no wire terms by construction, but guard anyway.
    if (src != dst) {
      const int k = pair_index(src, dst);
      if (e.l_mult != 0) a.terms.push_back({k, static_cast<double>(e.l_mult)});
    }
    a.constant += payload_cost(e.bytes, p_.G);
  }
  return a;
}

LinkClassParamSpace::LinkClassParamSpace(loggops::Params p,
                                         std::vector<std::string> class_names,
                                         std::vector<double> class_base_values,
                                         std::vector<Route> routes_by_pair,
                                         int nranks)
    : p_(p),
      names_(std::move(class_names)),
      base_(std::move(class_base_values)),
      routes_(std::move(routes_by_pair)),
      nranks_(nranks) {
  p_.validate();
  if (names_.size() != base_.size()) {
    throw LpError("link-class space: names/base size mismatch");
  }
  if (routes_.size() != static_cast<std::size_t>(nranks) *
                            static_cast<std::size_t>(nranks)) {
    throw LpError("link-class space: route table must be nranks^2");
  }
  for (const Route& r : routes_) {
    if (r.counts.size() != names_.size()) {
      throw LpError("link-class space: route count arity mismatch");
    }
  }
}

const LinkClassParamSpace::Route& LinkClassParamSpace::route(int src,
                                                             int dst) const {
  if (src < 0 || dst < 0 || src >= nranks_ || dst >= nranks_) {
    throw LpError("link-class space: rank out of range");
  }
  return routes_[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(nranks_) +
                 static_cast<std::size_t>(dst)];
}

Affine LinkClassParamSpace::edge_cost(const graph::Graph& g,
                                      const graph::Edge& e) const {
  Affine a;
  a.constant = latency_edge_cost(e, p_).constant;
  if (e.l_mult != 0) {
    const auto [src, dst] = g.edge_wire_pair(e);
    const Route& r = route(src, dst);
    const double lm = static_cast<double>(e.l_mult);
    a.constant += lm * r.constant;
    for (std::size_t c = 0; c < r.counts.size(); ++c) {
      if (r.counts[c] != 0.0) {
        a.terms.push_back({static_cast<int>(c), lm * r.counts[c]});
      }
    }
  }
  return a;
}

}  // namespace llamp::lp
