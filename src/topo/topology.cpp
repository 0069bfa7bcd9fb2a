#include "topo/topology.hpp"

#include <climits>
#include <cstdint>
#include <initializer_list>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::topo {

namespace {

/// Product of positive factors, computed in 64 bits; -1 when it exceeds
/// INT_MAX (node ids are int).
int node_count(std::initializer_list<int> factors) {
  std::int64_t n = 1;
  for (const int f : factors) {
    n *= f;  // both operands <= INT_MAX, so the product fits in 63 bits
    if (n > INT_MAX) return -1;
  }
  return static_cast<int>(n);
}

}  // namespace

FatTree::FatTree(int k) : k_(k) {
  if (k < 2 || k % 2 != 0) {
    throw TopoError("fat tree radix must be an even integer >= 2");
  }
  nnodes_ = node_count({k / 2, k / 2, k});  // k^3/4 hosts
  if (nnodes_ < 0) {
    throw TopoError(strformat(
        "fat tree radix %d gives more than %d nodes", k, INT_MAX));
  }
}

Path FatTree::path(int a, int b) const {
  if (a == b || a < 0 || b < 0 || a >= nnodes() || b >= nnodes()) {
    throw TopoError(strformat("fat tree: bad node pair (%d, %d)", a, b));
  }
  const int hosts_per_edge = k_ / 2;
  const int hosts_per_pod = k_ * k_ / 4;
  const int edge_a = a / hosts_per_edge;
  const int edge_b = b / hosts_per_edge;
  const int pod_a = a / hosts_per_pod;
  const int pod_b = b / hosts_per_pod;
  Path p;
  p.tc_wires = 2;
  if (edge_a == edge_b) {
    p.switches = 1;  // host - edge - host
  } else if (pod_a == pod_b) {
    p.switches = 3;  // edge - agg - edge
    p.intra_wires = 2;
  } else {
    p.switches = 5;  // edge - agg - core - agg - edge
    p.intra_wires = 2;
    p.inter_wires = 2;  // agg <-> core links cross the pod boundary
  }
  return p;
}

std::string FatTree::name() const {
  return strformat("fat-tree(k=%d, %d nodes)", k_, nnodes());
}

Dragonfly::Dragonfly(int groups, int switches_per_group, int hosts_per_switch)
    : g_(groups), a_(switches_per_group), p_(hosts_per_switch) {
  if (groups < 2 || switches_per_group < 1 || hosts_per_switch < 1) {
    throw TopoError("dragonfly: need g >= 2, a >= 1, p >= 1");
  }
  nnodes_ = node_count({groups, switches_per_group, hosts_per_switch});
  if (nnodes_ < 0) {
    throw TopoError(strformat(
        "dragonfly(g=%d, a=%d, p=%d) gives more than %d nodes", groups,
        switches_per_group, hosts_per_switch, INT_MAX));
  }
}

int Dragonfly::gateway_switch(int group, int to_group) const {
  if (group == to_group) throw TopoError("dragonfly: no self gateway");
  // Group `group`'s global links are enumerated toward groups
  // (group+1), (group+2), ... mod g and distributed round-robin over its
  // switches (the "consecutive" arrangement).
  const int k = (to_group - group - 1 + g_) % g_;
  return k % a_;
}

Path Dragonfly::path(int a, int b) const {
  if (a == b || a < 0 || b < 0 || a >= nnodes() || b >= nnodes()) {
    throw TopoError(strformat("dragonfly: bad node pair (%d, %d)", a, b));
  }
  const int sw_a = a / p_;
  const int sw_b = b / p_;
  const int grp_a = sw_a / a_;
  const int grp_b = sw_b / a_;
  const int loc_a = sw_a % a_;
  const int loc_b = sw_b % a_;
  Path p;
  p.tc_wires = 2;
  if (sw_a == sw_b) {
    p.switches = 1;
    return p;
  }
  if (grp_a == grp_b) {
    p.switches = 2;  // groups are cliques internally
    p.intra_wires = 1;
    return p;
  }
  const int gw_a = gateway_switch(grp_a, grp_b);
  const int gw_b = gateway_switch(grp_b, grp_a);
  p.switches = 2 + (loc_a != gw_a ? 1 : 0) + (loc_b != gw_b ? 1 : 0);
  p.intra_wires = (loc_a != gw_a ? 1 : 0) + (loc_b != gw_b ? 1 : 0);
  p.inter_wires = 1;
  return p;
}

std::string Dragonfly::name() const {
  return strformat("dragonfly(g=%d, a=%d, p=%d, %d nodes)", g_, a_, p_,
                   nnodes());
}

}  // namespace llamp::topo
