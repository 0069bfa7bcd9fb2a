#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "loggops/params.hpp"
#include "topo/topology.hpp"

namespace llamp::core {

/// Result of a placement computation: a rank -> node mapping plus the
/// LP-estimated runtime it achieves.
struct PlacementResult {
  std::vector<int> placement;
  double predicted_runtime = 0.0;
  /// optimize_placement only: the LP runtime of the starting placement
  /// (round 0's solve).  From a block start it is bit-equal to
  /// block_placement(...).predicted_runtime, so a caller reporting both
  /// needs no second lowering.
  double initial_runtime = 0.0;
  int iterations = 0;
  int swaps = 0;
};

/// Wire parameters used to derive the HLogGP matrices from a topology:
/// every pair communicates at (wires)·l_wire + (switches)·d_switch.
struct WireCost {
  double l_wire = 274.0;    // ns, Zambre et al. defaults used by the paper
  double d_switch = 108.0;  // ns
};

/// Communication volume between rank pairs (bytes over comm edges), the
/// input of volume-driven placement tools like Scotch.
std::vector<std::uint64_t> communication_volume(const graph::Graph& g);

/// Baseline: ranks mapped to nodes in order ("block", the MPI default).
PlacementResult block_placement(const graph::Graph& g,
                                const loggops::Params& p,
                                const topo::Topology& topo, WireCost wire);

/// Scotch-like baseline: greedy mapping driven purely by traffic volume —
/// each rank (in decreasing total-volume order) is pinned to the free node
/// minimizing volume-weighted latency to its already-placed partners.
PlacementResult volume_greedy_placement(const graph::Graph& g,
                                        const loggops::Params& p,
                                        const topo::Topology& topo,
                                        WireCost wire);

/// Algorithm 3 (Appendix J): LLAMP's sensitivity-guided iterative placement.
/// Starting from `initial` (block placement if empty), each round solves the
/// HLogGP LP to obtain the pairwise latency sensitivity matrix D_L, swaps
/// the rank pair with the best predicted gain, and keeps the swap only if
/// the LP-estimated runtime improves.  Terminates when no positive-gain
/// swap exists, when the objective worsens, or after `max_rounds`.  (The
/// paper's D_G term vanishes under uniform G, so it is not computed.)
/// The swap scan prices routes from the pairwise latency matrix the
/// round's LP was built on, so it makes no Topology::path calls.
/// Throws UsageError when max_rounds < 1.
PlacementResult optimize_placement(const graph::Graph& g,
                                   const loggops::Params& p,
                                   const topo::Topology& topo, WireCost wire,
                                   std::vector<int> initial = {},
                                   int max_rounds = 64);

/// LP-predicted runtime of an explicit placement (shared evaluation used by
/// all three strategies above).
double placement_runtime(const graph::Graph& g, const loggops::Params& p,
                         const topo::Topology& topo, WireCost wire,
                         const std::vector<int>& placement);

}  // namespace llamp::core
