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

}  // namespace

std::vector<int> identity_placement(int nranks) {
  std::vector<int> out(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) out[static_cast<std::size_t>(r)] = r;
  return out;
}

lp::LinkClassParamSpace make_wire_latency_space(
    const loggops::Params& p, const Topology& topo,
    const std::vector<int>& placement, double l_wire_base, double d_switch) {
  check_placement(topo, placement);
  const int n = static_cast<int>(placement.size());
  std::vector<lp::LinkClassParamSpace::Route> routes(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      auto& route = routes[static_cast<std::size_t>(i) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(j)];
      route.counts.assign(1, 0.0);
      if (i == j) continue;
      const Path path = topo.path(placement[static_cast<std::size_t>(i)],
                                  placement[static_cast<std::size_t>(j)]);
      route.counts[0] = static_cast<double>(path.total_wires());
      route.constant = static_cast<double>(path.switches) * d_switch;
    }
  }
  return lp::LinkClassParamSpace(p, {"l_wire"}, {l_wire_base},
                                 std::move(routes), n);
}

lp::LinkClassParamSpace make_dragonfly_class_space(
    const loggops::Params& p, const Dragonfly& topo,
    const std::vector<int>& placement, double l_tc_base, double l_intra_base,
    double l_inter_base, double d_switch) {
  check_placement(topo, placement);
  const int n = static_cast<int>(placement.size());
  std::vector<lp::LinkClassParamSpace::Route> routes(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      auto& route = routes[static_cast<std::size_t>(i) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(j)];
      route.counts.assign(3, 0.0);
      if (i == j) continue;
      const Path path = topo.path(placement[static_cast<std::size_t>(i)],
                                  placement[static_cast<std::size_t>(j)]);
      route.counts[0] = static_cast<double>(path.tc_wires);
      route.counts[1] = static_cast<double>(path.intra_wires);
      route.counts[2] = static_cast<double>(path.inter_wires);
      route.constant = static_cast<double>(path.switches) * d_switch;
    }
  }
  return lp::LinkClassParamSpace(p,
                                 std::vector<std::string>(
                                     kDragonflyClasses.begin(),
                                     kDragonflyClasses.end()),
                                 {l_tc_base, l_intra_base, l_inter_base},
                                 std::move(routes), n);
}

PairwiseMatrices make_pairwise_matrices(const loggops::Params& p,
                                        const Topology& topo,
                                        const std::vector<int>& placement,
                                        double l_wire, double d_switch) {
  check_placement(topo, placement);
  const int n = static_cast<int>(placement.size());
  PairwiseMatrices out;
  out.latency.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                     0.0);
  out.gap.assign(out.latency.size(), p.G);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const Path path = topo.path(placement[static_cast<std::size_t>(i)],
                                  placement[static_cast<std::size_t>(j)]);
      out.latency[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(j)] =
          static_cast<double>(path.total_wires()) * l_wire +
          static_cast<double>(path.switches) * d_switch;
    }
  }
  return out;
}

}  // namespace llamp::topo
