#include "core/placement.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "topo/spaces.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::core {

namespace {

std::size_t idx(int i, int j, int n) {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(j);
}

/// Latency between two *nodes* under the wire model.
double node_latency(const topo::Topology& topo, WireCost wire, int a, int b) {
  if (a == b) return 0.0;
  const topo::Path p = topo.path(a, b);
  return static_cast<double>(p.total_wires()) * wire.l_wire +
         static_cast<double>(p.switches) * wire.d_switch;
}

/// Solve the HLogGP LP for a placement; returns runtime and, optionally,
/// the pairwise latency sensitivity matrix D_L.
double solve_hloggp(const graph::Graph& g, const loggops::Params& p,
                    const topo::Topology& topo, WireCost wire,
                    const std::vector<int>& placement,
                    std::vector<double>* dl_matrix) {
  const int n = g.nranks();
  const auto mats =
      topo::make_pairwise_matrices(p, topo, placement, wire.l_wire,
                                   wire.d_switch);
  const auto space = std::make_shared<lp::PairwiseLatencyParamSpace>(
      p, n, mats.latency, mats.gap);
  const lp::LoweredProblem prob(g, space);
  const auto sol = prob.solve(0, space->base_value(0));
  if (dl_matrix != nullptr) {
    dl_matrix->assign(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const double v =
            sol.gradient[static_cast<std::size_t>(space->pair_index(i, j))];
        (*dl_matrix)[idx(i, j, n)] = v;
        (*dl_matrix)[idx(j, i, n)] = v;
      }
    }
  }
  return sol.value;
}

}  // namespace

std::vector<std::uint64_t> communication_volume(const graph::Graph& g) {
  const int n = g.nranks();
  std::vector<std::uint64_t> vol(static_cast<std::size_t>(n) *
                                     static_cast<std::size_t>(n),
                                 0);
  for (const graph::Edge& e : g.edges()) {
    if (e.kind != graph::EdgeKind::kComm) continue;
    const int src = g.vertex(e.from).rank;
    const int dst = g.vertex(e.to).rank;
    vol[idx(src, dst, n)] += g.vertex(e.from).bytes;
    vol[idx(dst, src, n)] += g.vertex(e.from).bytes;
  }
  return vol;
}

double placement_runtime(const graph::Graph& g, const loggops::Params& p,
                         const topo::Topology& topo, WireCost wire,
                         const std::vector<int>& placement) {
  return solve_hloggp(g, p, topo, wire, placement, nullptr);
}

PlacementResult block_placement(const graph::Graph& g,
                                const loggops::Params& p,
                                const topo::Topology& topo, WireCost wire) {
  PlacementResult r;
  r.placement = topo::identity_placement(g.nranks());
  r.predicted_runtime = placement_runtime(g, p, topo, wire, r.placement);
  return r;
}

PlacementResult volume_greedy_placement(const graph::Graph& g,
                                        const loggops::Params& p,
                                        const topo::Topology& topo,
                                        WireCost wire) {
  const int n = g.nranks();
  if (topo.nnodes() < n) throw TopoError("topology too small for rank count");
  const auto vol = communication_volume(g);

  // Rank order: heaviest total communicators first.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint64_t> total(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) total[static_cast<std::size_t>(i)] += vol[idx(i, j, n)];
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return total[static_cast<std::size_t>(a)] > total[static_cast<std::size_t>(b)];
  });

  std::vector<int> placement(static_cast<std::size_t>(n), -1);
  std::vector<bool> node_used(static_cast<std::size_t>(topo.nnodes()), false);
  // Only the first n nodes are candidates: dense packing like the paper.
  for (const int r : order) {
    double best_cost = std::numeric_limits<double>::infinity();
    int best_node = -1;
    for (int node = 0; node < n; ++node) {
      if (node_used[static_cast<std::size_t>(node)]) continue;
      double cost = 0.0;
      for (int k = 0; k < n; ++k) {
        if (placement[static_cast<std::size_t>(k)] < 0 || vol[idx(r, k, n)] == 0) {
          continue;
        }
        cost += static_cast<double>(vol[idx(r, k, n)]) *
                node_latency(topo, wire, node,
                             placement[static_cast<std::size_t>(k)]);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_node = node;
      }
    }
    placement[static_cast<std::size_t>(r)] = best_node;
    node_used[static_cast<std::size_t>(best_node)] = true;
  }

  PlacementResult res;
  res.placement = std::move(placement);
  res.predicted_runtime = placement_runtime(g, p, topo, wire, res.placement);
  return res;
}

PlacementResult optimize_placement(const graph::Graph& g,
                                   const loggops::Params& p,
                                   const topo::Topology& topo, WireCost wire,
                                   std::vector<int> initial, int max_rounds) {
  if (max_rounds < 1) {
    throw UsageError(
        strformat("need --max-rounds >= 1 (got %d)", max_rounds));
  }
  const int n = g.nranks();
  if (topo.nnodes() < n) throw TopoError("topology too small for rank count");
  std::vector<int> pi =
      initial.empty() ? topo::identity_placement(n) : std::move(initial);
  if (static_cast<int>(pi.size()) != n) {
    throw Error("placement: initial mapping arity mismatch");
  }

  PlacementResult res;
  res.placement = pi;
  double f_star = std::numeric_limits<double>::infinity();

  for (int round = 0; round < max_rounds; ++round) {
    ++res.iterations;
    std::vector<double> dl;
    const double f = solve_hloggp(g, p, topo, wire, pi, &dl);
    if (f < f_star) {
      f_star = f;
      res.placement = pi;
      res.predicted_runtime = f;
    } else {
      // Objective did not improve: revert to the best placement and stop.
      break;
    }

    // Predicted gain of swapping ranks i and j: the change in the
    // sensitivity-weighted communication cost of the critical path.  D_L
    // counts latency units between pairs on the path; the swap changes
    // which physical route each pair uses.  The paper's D_G term drops
    // out: G is uniform across routes here, so a swap never changes it.
    double best_gain = 0.0;
    int best_i = -1, best_j = -1;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double gain = 0.0;
        for (int k = 0; k < n; ++k) {
          if (k == i || k == j) continue;
          const double lat_ik = node_latency(topo, wire, pi[static_cast<std::size_t>(i)],
                                             pi[static_cast<std::size_t>(k)]);
          const double lat_jk = node_latency(topo, wire, pi[static_cast<std::size_t>(j)],
                                             pi[static_cast<std::size_t>(k)]);
          // After the swap, pair (i,k) uses j's node and vice versa.
          gain += (dl[idx(i, k, n)] - dl[idx(j, k, n)]) * (lat_ik - lat_jk);
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i < 0) break;  // no positive-gain swap
    std::swap(pi[static_cast<std::size_t>(best_i)],
              pi[static_cast<std::size_t>(best_j)]);
    ++res.swaps;
  }
  return res;
}

}  // namespace llamp::core
