#pragma once

#include <memory>
#include <string>
#include <vector>

namespace llamp::topo {

/// Per-route structure between two *nodes* of a physical topology: how many
/// switches the minimal route traverses and how its wires split into
/// classes.  The paper's topology analysis (§IV-2, Appendix H) prices a
/// route at (h+1)·l_wire + h·d_switch with h = number of switches; the
/// Dragonfly refinement (Fig. 19) distinguishes terminal, intra-group, and
/// inter-group wires.
struct Path {
  int switches = 0;     ///< h
  int tc_wires = 0;     ///< host <-> switch terminal channels
  int intra_wires = 0;  ///< switch <-> switch inside a group / pod
  int inter_wires = 0;  ///< global (inter-group / core-level) wires
  int total_wires() const { return tc_wires + intra_wires + inter_wires; }
};

/// A physical network topology: a set of nodes with minimal-route metadata
/// between every pair.
class Topology {
 public:
  virtual ~Topology() = default;
  virtual int nnodes() const = 0;
  /// Minimal route between two distinct nodes.  a == b is invalid.
  virtual Path path(int a, int b) const = 0;
  virtual std::string name() const = 0;
};

/// Three-tier Fat Tree of radix-k switches (Al-Fares et al.): k pods, each
/// with k/2 edge and k/2 aggregation switches, (k/2)^2 core switches, and
/// k^3/4 hosts.  Minimal routes traverse 1 / 3 / 5 switches for same-edge /
/// same-pod / cross-pod pairs.  Hosts are densely packed: nodes 0..k/2-1
/// share the first edge switch, and so on (the paper's packing assumption).
class FatTree final : public Topology {
 public:
  /// Throws TopoError for an odd radix, k < 2, or more than INT_MAX hosts.
  explicit FatTree(int k);

  int radix() const { return k_; }
  int nnodes() const override { return nnodes_; }
  Path path(int a, int b) const override;
  std::string name() const override;

 private:
  int k_;
  int nnodes_ = 0;
};

/// Dragonfly (Kim et al.) with g groups, a switches per group, p hosts per
/// switch; groups are fully connected pairwise by one global link whose
/// endpoints rotate over the switches of each group (consecutive
/// arrangement).  Minimal routes traverse 1 (same switch), 2 (same group),
/// or 2..4 (cross group, depending on gateway positions) switches.
class Dragonfly final : public Topology {
 public:
  /// Throws TopoError for g < 2, a < 1, p < 1, or more than INT_MAX hosts.
  Dragonfly(int groups, int switches_per_group, int hosts_per_switch);

  int groups() const { return g_; }
  int switches_per_group() const { return a_; }
  int hosts_per_switch() const { return p_; }
  int nnodes() const override { return nnodes_; }
  Path path(int a, int b) const override;
  std::string name() const override;

  /// Switch within a group hosting the global link toward `to_group`.
  int gateway_switch(int group, int to_group) const;

 private:
  int g_, a_, p_;
  int nnodes_ = 0;
};

}  // namespace llamp::topo
