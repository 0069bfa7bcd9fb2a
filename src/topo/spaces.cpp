#include "topo/spaces.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::topo {

namespace {

void check_placement(const Topology& topo, const std::vector<int>& placement) {
  if (placement.empty()) throw TopoError("empty placement");
  std::vector<bool> used(static_cast<std::size_t>(topo.nnodes()), false);
  for (const int node : placement) {
    if (node < 0 || node >= topo.nnodes()) {
      throw TopoError(strformat("placement maps a rank to node %d outside "
                                "%s", node, topo.name().c_str()));
    }
    if (used[static_cast<std::size_t>(node)]) {
      throw TopoError(strformat("placement maps two ranks to node %d", node));
    }
    used[static_cast<std::size_t>(node)] = true;
  }
}

/// Row-major tables over ordered rank pairs, pair = i·nranks + j.
struct RouteTable {
  std::vector<double> counts;     ///< nranks² x width
  std::vector<double> constants;  ///< nranks²
  int nranks = 0;
};

/// The one route walk behind every topology-derived table: checks the
/// placement, then for each ordered pair of distinct ranks reads the
/// topology's route between their nodes.  read(path, row) writes the
/// pair's `width` counts into row and returns its constant; the diagonal
/// stays zero.
template <typename Read>
RouteTable walk_routes(const Topology& topo, const std::vector<int>& placement,
                       std::size_t width, Read&& read) {
  check_placement(topo, placement);
  const std::size_t n = placement.size();
  RouteTable t;
  t.counts.assign(n * n * width, 0.0);
  t.constants.assign(n * n, 0.0);
  t.nranks = static_cast<int>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::size_t pair = i * n + j;
      t.constants[pair] = read(topo.path(placement[i], placement[j]),
                               t.counts.data() + pair * width);
    }
  }
  return t;
}

}  // namespace

std::vector<int> identity_placement(int nranks) {
  std::vector<int> out(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) out[static_cast<std::size_t>(r)] = r;
  return out;
}

lp::LinkClassParamSpace make_wire_latency_space(
    const loggops::Params& p, const Topology& topo,
    const std::vector<int>& placement, double l_wire_base, double d_switch) {
  RouteTable t = walk_routes(topo, placement, 1,
                             [&](const Path& path, double* count) {
    count[0] = static_cast<double>(path.total_wires());
    return static_cast<double>(path.switches) * d_switch;
  });
  return lp::LinkClassParamSpace(p, {"l_wire"}, {l_wire_base},
                                 std::move(t.counts), std::move(t.constants),
                                 t.nranks);
}

lp::LinkClassParamSpace make_dragonfly_class_space(
    const loggops::Params& p, const Dragonfly& topo,
    const std::vector<int>& placement, double l_tc_base, double l_intra_base,
    double l_inter_base, double d_switch) {
  RouteTable t = walk_routes(topo, placement, kDragonflyClasses.size(),
                             [&](const Path& path, double* count) {
    count[0] = static_cast<double>(path.tc_wires);
    count[1] = static_cast<double>(path.intra_wires);
    count[2] = static_cast<double>(path.inter_wires);
    return static_cast<double>(path.switches) * d_switch;
  });
  return lp::LinkClassParamSpace(p,
                                 std::vector<std::string>(
                                     kDragonflyClasses.begin(),
                                     kDragonflyClasses.end()),
                                 {l_tc_base, l_intra_base, l_inter_base},
                                 std::move(t.counts), std::move(t.constants),
                                 t.nranks);
}

PairwiseMatrices make_pairwise_matrices(const loggops::Params& p,
                                        const Topology& topo,
                                        const std::vector<int>& placement,
                                        double l_wire, double d_switch) {
  PairwiseMatrices out;
  out.latency = walk_routes(topo, placement, 0,
                            [&](const Path& path, double*) {
    return static_cast<double>(path.total_wires()) * l_wire +
           static_cast<double>(path.switches) * d_switch;
  }).constants;
  out.gap.assign(out.latency.size(), p.G);
  return out;
}

}  // namespace llamp::topo
