#include <gtest/gtest.h>

#include <string>

#include "topo/spaces.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"

namespace llamp::topo {
namespace {

TEST(FatTreeShape, NodeCountAndName) {
  EXPECT_EQ(FatTree(4).nnodes(), 16);
  EXPECT_EQ(FatTree(16).nnodes(), 1024);  // the paper's k = 16 three-tier
  EXPECT_THROW(FatTree(3), TopoError);
  EXPECT_THROW(FatTree(0), TopoError);
  EXPECT_NE(FatTree(4).name().find("fat-tree"), std::string::npos);
}

TEST(FatTreeShape, NodeCountBeyondIntIsAnError) {
  // k^3/4 used to be computed in int: radix 4096 wrapped to "0 nodes".
  EXPECT_EQ(FatTree(2046).nnodes(), 2'141'198'334);  // largest that fits
  for (const int k : {2048, 4096, 1 << 30}) {
    try {
      (void)FatTree(k);
      ADD_FAILURE() << "expected TopoError for k=" << k;
    } catch (const TopoError& e) {
      EXPECT_EQ(std::string(e.what()),
                "topo: fat tree radix " + std::to_string(k) +
                    " gives more than 2147483647 nodes");
    }
  }
  try {
    (void)FatTree(3);
    ADD_FAILURE() << "expected TopoError";
  } catch (const TopoError& e) {
    EXPECT_STREQ(e.what(), "topo: fat tree radix must be an even integer >= 2");
  }
}

TEST(FatTreeRoutes, HopTiers) {
  const FatTree ft(4);  // 2 hosts/edge switch, 4 hosts/pod
  // Same edge switch: 1 switch, 2 wires.
  Path p = ft.path(0, 1);
  EXPECT_EQ(p.switches, 1);
  EXPECT_EQ(p.total_wires(), 2);
  // Same pod, different edge: 3 switches, 4 wires.
  p = ft.path(0, 2);
  EXPECT_EQ(p.switches, 3);
  EXPECT_EQ(p.total_wires(), 4);
  // Cross pod: 5 switches, 6 wires.
  p = ft.path(0, 4);
  EXPECT_EQ(p.switches, 5);
  EXPECT_EQ(p.total_wires(), 6);
  EXPECT_THROW((void)ft.path(0, 0), TopoError);
  EXPECT_THROW((void)ft.path(0, 99), TopoError);
}

TEST(FatTreeRoutes, Symmetric) {
  const FatTree ft(8);
  for (const auto& [a, b] : {std::pair{0, 3}, {0, 17}, {5, 100}}) {
    const Path ab = ft.path(a, b);
    const Path ba = ft.path(b, a);
    EXPECT_EQ(ab.switches, ba.switches);
    EXPECT_EQ(ab.total_wires(), ba.total_wires());
  }
}

TEST(DragonflyShape, NodeCountAndValidation) {
  // The paper's configuration: g = 8, a = 4, p = 8 -> 256 nodes.
  EXPECT_EQ(Dragonfly(8, 4, 8).nnodes(), 256);
  EXPECT_THROW(Dragonfly(1, 4, 8), TopoError);
  EXPECT_THROW(Dragonfly(8, 0, 8), TopoError);
}

TEST(DragonflyShape, NodeCountBeyondIntIsAnError) {
  // g*a*p used to be computed in int: 100000 x 100000 x 8 wrapped negative.
  EXPECT_EQ(Dragonfly(2, 1, 1'073'741'823).nnodes(), 2'147'483'646);
  try {
    (void)Dragonfly(100'000, 100'000, 8);
    ADD_FAILURE() << "expected TopoError";
  } catch (const TopoError& e) {
    EXPECT_STREQ(e.what(),
                 "topo: dragonfly(g=100000, a=100000, p=8) gives more than "
                 "2147483647 nodes");
  }
  EXPECT_THROW(Dragonfly(2'147'483'647, 2'147'483'647, 2'147'483'647),
               TopoError);
  EXPECT_THROW(Dragonfly(2, 1, 1'073'741'824), TopoError);
  try {
    (void)Dragonfly(1, 4, 8);
    ADD_FAILURE() << "expected TopoError";
  } catch (const TopoError& e) {
    EXPECT_STREQ(e.what(), "topo: dragonfly: need g >= 2, a >= 1, p >= 1");
  }
}

TEST(DragonflyRoutes, Tiers) {
  const Dragonfly df(8, 4, 8);
  // Same switch.
  Path p = df.path(0, 1);
  EXPECT_EQ(p.switches, 1);
  EXPECT_EQ(p.tc_wires, 2);
  EXPECT_EQ(p.intra_wires + p.inter_wires, 0);
  // Same group, different switch: one intra wire.
  p = df.path(0, 8);
  EXPECT_EQ(p.switches, 2);
  EXPECT_EQ(p.intra_wires, 1);
  EXPECT_EQ(p.inter_wires, 0);
  // Cross group: exactly one global wire, 2..4 switches.
  p = df.path(0, 32 * 3);
  EXPECT_EQ(p.inter_wires, 1);
  EXPECT_GE(p.switches, 2);
  EXPECT_LE(p.switches, 4);
}

TEST(DragonflyRoutes, GatewayConsistency) {
  const Dragonfly df(8, 4, 8);
  for (int g1 = 0; g1 < 8; ++g1) {
    for (int g2 = 0; g2 < 8; ++g2) {
      if (g1 == g2) continue;
      const int gw = df.gateway_switch(g1, g2);
      EXPECT_GE(gw, 0);
      EXPECT_LT(gw, 4);
    }
  }
  EXPECT_THROW((void)df.gateway_switch(1, 1), TopoError);
}

TEST(DragonflyRoutes, CrossGroupSwitchCountMatchesGateways) {
  const Dragonfly df(4, 2, 2);
  for (int a = 0; a < df.nnodes(); ++a) {
    for (int b = 0; b < df.nnodes(); ++b) {
      if (a == b) continue;
      const Path p = df.path(a, b);
      const int wires_expected = p.tc_wires + p.intra_wires + p.inter_wires;
      EXPECT_EQ(p.total_wires(), wires_expected);
      // Wires = switches + 1 on any simple route host..host.
      EXPECT_EQ(p.total_wires(), p.switches + 1);
    }
  }
}

TEST(WireSpace, FatTreeRouteCosts) {
  const FatTree ft(4);
  loggops::Params params;
  params.o = 0.0;
  const auto placement = identity_placement(8);
  const auto space =
      make_wire_latency_space(params, ft, placement, 274.0, 108.0);
  EXPECT_EQ(space.num_params(), 1);
  EXPECT_EQ(space.param_name(0), "l_wire");
  EXPECT_DOUBLE_EQ(space.base_value(0), 274.0);

  graph::Graph g(8);
  const auto s = g.add_send(0, 4, 1);  // cross pod: 5 switches, 6 wires
  const auto r = g.add_recv(4, 0, 1);
  g.add_comm_edge(s, r, false);
  g.finalize();
  const lp::Affine a = space.edge_cost(g, g.edges()[0]);
  EXPECT_DOUBLE_EQ(a.constant, 5 * 108.0);
  ASSERT_EQ(a.terms.size(), 1u);
  EXPECT_DOUBLE_EQ(a.terms[0].coeff, 6.0);
}

TEST(WireSpace, PlacementValidation) {
  const FatTree ft(4);
  loggops::Params params;
  EXPECT_THROW(make_wire_latency_space(params, ft, {}, 1.0, 1.0), TopoError);
  EXPECT_THROW(make_wire_latency_space(params, ft, {0, 0}, 1.0, 1.0),
               TopoError);
  EXPECT_THROW(make_wire_latency_space(params, ft, {0, 99}, 1.0, 1.0),
               TopoError);
}

TEST(DragonflyClassSpace, ThreeClasses) {
  const Dragonfly df(4, 2, 2);
  loggops::Params params;
  params.o = 0.0;
  const auto placement = identity_placement(df.nnodes());
  const auto space = make_dragonfly_class_space(params, df, placement, 100.0,
                                                200.0, 300.0, 50.0);
  EXPECT_EQ(space.num_params(), 3);
  EXPECT_EQ(space.param_name(2), "l_inter");

  // Cross-group pair: 2 tc wires + 1 inter wire (+ maybe intra).
  graph::Graph g(df.nnodes());
  const auto s = g.add_send(0, 4, 1);
  const auto r = g.add_recv(4, 0, 1);
  g.add_comm_edge(s, r, false);
  g.finalize();
  const lp::Affine a = space.edge_cost(g, g.edges()[0]);
  double tc = 0, inter = 0;
  for (const auto& term : a.terms) {
    if (term.param == 0) tc = term.coeff;
    if (term.param == 2) inter = term.coeff;
  }
  EXPECT_DOUBLE_EQ(tc, 2.0);
  EXPECT_DOUBLE_EQ(inter, 1.0);
}

TEST(PairwiseMatrices, MatchRouteFormula) {
  const FatTree ft(4);
  loggops::Params params;
  const auto mats =
      make_pairwise_matrices(params, ft, identity_placement(6), 274.0, 108.0);
  // Pair (0, 4) is cross-pod: 6 wires + 5 switches.
  EXPECT_DOUBLE_EQ(mats.latency[0 * 6 + 4], 6 * 274.0 + 5 * 108.0);
  EXPECT_DOUBLE_EQ(mats.latency[4 * 6 + 0], mats.latency[0 * 6 + 4]);
  EXPECT_DOUBLE_EQ(mats.latency[2 * 6 + 2], 0.0);
  EXPECT_DOUBLE_EQ(mats.gap[0 * 6 + 4], params.G);
}

}  // namespace
}  // namespace llamp::topo
