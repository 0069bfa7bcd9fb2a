#pragma once

#include <array>
#include <vector>

#include "lp/param_space.hpp"
#include "topo/topology.hpp"

namespace llamp::topo {

/// rank -> node mapping helpers.
std::vector<int> identity_placement(int nranks);

/// §IV-2 / Fig. 11: all wires share one decision variable l_wire and every
/// switch adds the fixed d_switch, so rank pair (i, j) communicates at
/// (h+1)·l_wire + h·d_switch with h taken from the topology's minimal route
/// between π(i) and π(j).  Setting l_wire's base value and solving
/// ∂T/∂l_wire quantifies sensitivity to per-wire (e.g. FEC-induced) latency.
lp::LinkClassParamSpace make_wire_latency_space(
    const loggops::Params& p, const Topology& topo,
    const std::vector<int>& placement, double l_wire_base, double d_switch);

/// The Dragonfly wire classes, in the parameter order of
/// make_dragonfly_class_space.
inline constexpr std::array<const char*, 3> kDragonflyClasses = {
    "l_tc", "l_intra", "l_inter"};

/// Appendix H / Fig. 19: Dragonfly with separate decision variables for
/// terminal channels (l_tc), intra-group wires (l_intra), and inter-group
/// wires (l_inter).  Tolerance of one class is obtained by fixing the other
/// two at their base values (the LoweredProblem's active-parameter
/// mechanism does exactly that).
lp::LinkClassParamSpace make_dragonfly_class_space(
    const loggops::Params& p, const Dragonfly& topo,
    const std::vector<int>& placement, double l_tc_base, double l_intra_base,
    double l_inter_base, double d_switch);

/// HLogGP builder (Appendix I): pairwise latency/gap matrices derived from a
/// topology, where each pair's base latency is (h+1)·l_wire + h·d_switch and
/// the gap is uniform.  Feeds PairwiseLatencyParamSpace and the placement
/// algorithm.
struct PairwiseMatrices {
  std::vector<double> latency;  ///< row-major nranks x nranks, zero diagonal
  std::vector<double> gap;
};
PairwiseMatrices make_pairwise_matrices(const loggops::Params& p,
                                        const Topology& topo,
                                        const std::vector<int>& placement,
                                        double l_wire, double d_switch);

}  // namespace llamp::topo
