#include <gtest/gtest.h>

#include <algorithm>

#include "apps/registry.hpp"
#include "graph/costs.hpp"
#include "graph/graph.hpp"
#include "schedgen/schedgen.hpp"
#include "util/error.hpp"

namespace llamp::graph {
namespace {

Graph two_rank_pair(bool rendezvous) {
  Graph g(2);
  const auto s = g.add_send(0, 1, 100);
  const auto r = g.add_recv(1, 0, 100);
  g.add_comm_edge(s, r, rendezvous);
  g.finalize();
  return g;
}

TEST(Construction, VertexKindsAndFields) {
  Graph g(2);
  const auto c = g.add_calc(0, 42.0);
  const auto p = g.add_post(1);
  const auto s = g.add_send(0, 1, 8, 3);
  const auto r = g.add_recv(1, 0, 8, 3);
  g.add_comm_edge(s, r, false);
  g.add_local_edge(c, s);
  g.finalize();
  EXPECT_EQ(g.vertex(c).kind, VertexKind::kCalc);
  EXPECT_DOUBLE_EQ(g.vertex(c).duration, 42.0);
  EXPECT_EQ(g.vertex(p).kind, VertexKind::kPost);
  EXPECT_EQ(g.vertex(s).peer, 1);
  EXPECT_EQ(g.vertex(r).tag, 3);
  EXPECT_EQ(g.comm_partner(s), r);
  EXPECT_EQ(g.comm_partner(r), s);
  EXPECT_EQ(g.comm_partner(c), kInvalidVertex);
}

TEST(Construction, Errors) {
  EXPECT_THROW(Graph(0), GraphError);
  Graph g(2);
  EXPECT_THROW(g.add_calc(5, 1.0), GraphError);
  EXPECT_THROW(g.add_calc(0, -1.0), GraphError);
  EXPECT_THROW(g.add_send(0, 0, 8), GraphError);
  EXPECT_THROW(g.add_send(0, 9, 8), GraphError);
  const auto a = g.add_calc(0, 1.0);
  EXPECT_THROW(g.add_local_edge(a, a), GraphError);
  EXPECT_THROW(g.add_local_edge(a, 99), GraphError);
  const auto b = g.add_calc(1, 1.0);
  EXPECT_THROW(g.add_local_edge(a, b), GraphError);  // cross-rank local edge
}

TEST(CommEdgeInvariants, KindAndEndpointChecks) {
  Graph g(3);
  const auto s = g.add_send(0, 1, 64);
  const auto r_wrong_rank = g.add_recv(2, 0, 64);
  EXPECT_THROW(g.add_comm_edge(s, r_wrong_rank, false), GraphError);
  const auto r_wrong_size = g.add_recv(1, 0, 65);
  EXPECT_THROW(g.add_comm_edge(s, r_wrong_size, false), GraphError);
  const auto c = g.add_calc(0, 1.0);
  EXPECT_THROW(g.add_comm_edge(c, r_wrong_size, false), GraphError);
}

TEST(Finalize, RejectsDuplicateCommEdges) {
  Graph g(2);
  const auto s = g.add_send(0, 1, 8);
  const auto r = g.add_recv(1, 0, 8);
  g.add_comm_edge(s, r, false);
  g.add_comm_edge(s, r, false);
  EXPECT_THROW(g.finalize(), GraphError);
}

TEST(Finalize, RejectsDanglingSendOrRecv) {
  Graph g(2);
  (void)g.add_send(0, 1, 8);
  EXPECT_THROW(g.finalize(), GraphError);
}

TEST(Finalize, DetectsCycle) {
  Graph g(1);
  const auto a = g.add_calc(0, 1.0);
  const auto b = g.add_calc(0, 1.0);
  g.add_local_edge(a, b);
  g.add_local_edge(b, a);
  EXPECT_THROW(g.finalize(), GraphError);
}

TEST(Finalize, GuardsAccessorsBeforeFinalize) {
  Graph g(1);
  const auto a = g.add_calc(0, 1.0);
  EXPECT_THROW((void)g.out_edges(a), GraphError);
  EXPECT_THROW((void)g.topo_order(), GraphError);
  EXPECT_THROW((void)g.topo_slots(), GraphError);
  g.finalize();
  EXPECT_THROW((void)g.add_calc(0, 1.0), GraphError);
}

TEST(TopoOrder, EveryEdgeGoesForward) {
  Graph g(2);
  const auto c0 = g.add_calc(0, 0.0);
  const auto c1 = g.add_calc(1, 1.0);
  const auto c2 = g.add_calc(0, 2.0);
  const auto c3 = g.add_calc(1, 3.0);
  const auto c4 = g.add_calc(1, 4.0);
  const auto s = g.add_send(0, 1, 8);
  const auto r = g.add_recv(1, 0, 8);
  g.add_local_edge(c0, s);
  g.add_local_edge(c1, r);
  g.add_comm_edge(s, r, false);
  g.add_local_edge(s, c2);
  g.add_local_edge(r, c3);
  g.add_local_edge(c3, c4);
  g.finalize();
  const auto topo = g.topo_order();
  std::vector<std::size_t> pos(g.num_vertices());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (const Edge& e : g.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

/// The topo-slot layout every lowering reads: edge <-> slot is a bijection,
/// each slot sits at its head's topo position after its predecessor's,
/// slots within a position ascend by edge id, and the sinks and the max
/// in-degree agree with the edge list.
void expect_topo_slot_invariants(const Graph& g) {
  const std::size_t n = g.num_vertices();
  const std::size_t ne = g.num_edges();
  const auto topo = g.topo_order();
  const Graph::TopoSlots& ts = g.topo_slots();
  ASSERT_EQ(ts.offsets.size(), n + 1);
  ASSERT_EQ(ts.offsets.front(), 0u);
  ASSERT_EQ(ts.offsets.back(), ne);
  ASSERT_EQ(ts.pred.size(), ne);
  ASSERT_EQ(ts.edge.size(), ne);
  ASSERT_EQ(ts.slot_of.size(), ne);
  ASSERT_EQ(ts.pos_of.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_EQ(ts.pos_of[topo[i]], i);
  for (std::uint32_t e = 0; e < ne; ++e) {
    ASSERT_LT(ts.slot_of[e], ne);
    ASSERT_EQ(ts.edge[ts.slot_of[e]], e);
  }
  std::vector<std::uint32_t> indeg(n, 0);
  for (const Edge& e : g.edges()) ++indeg[e.to];
  std::uint32_t max_in = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t jlo = ts.offsets[i];
    const std::uint32_t jhi = ts.offsets[i + 1];
    ASSERT_EQ(jhi - jlo, indeg[topo[i]]);
    max_in = std::max(max_in, jhi - jlo);
    for (std::uint32_t j = jlo; j < jhi; ++j) {
      const std::uint32_t e = ts.edge[j];
      ASSERT_EQ(ts.slot_of[e], j);
      ASSERT_EQ(ts.pos_of[g.edge(e).to], i);
      ASSERT_EQ(ts.pred[j], ts.pos_of[g.edge(e).from]);
      ASSERT_LT(ts.pred[j], i);
      if (j > jlo) {
        ASSERT_LT(ts.edge[j - 1], e);
      }
    }
  }
  EXPECT_EQ(ts.max_in_degree, max_in);
  std::vector<VertexId> want_sinks;
  for (VertexId v = 0; v < n; ++v) {
    if (g.out_edges(v).empty()) want_sinks.push_back(v);
  }
  std::vector<VertexId> sinks;
  for (const std::uint32_t pos : ts.sinks) sinks.push_back(topo[pos]);
  EXPECT_EQ(sinks, want_sinks);
}

TEST(TopoOrder, SlotLayoutInvariantsOnEveryApp) {
  expect_topo_slot_invariants(two_rank_pair(true));
  for (const std::string& app : apps::app_names()) {
    SCOPED_TRACE(app);
    const auto g = schedgen::build_graph(
        apps::make_app_trace(app, apps::supported_ranks(app, 8), 0.02));
    expect_topo_slot_invariants(g);
  }
}

TEST(EdgeCostSpecs, EagerVsRendezvous) {
  const Graph ge = two_rank_pair(false);
  const Graph gr = two_rank_pair(true);
  const Edge& eager = ge.edges()[0];
  const Edge& rdzv = gr.edges()[0];
  EXPECT_EQ(eager.l_mult, 1);
  EXPECT_EQ(rdzv.l_mult, 3);
  EXPECT_EQ(eager.bytes, 100u);
  EXPECT_EQ(rdzv.bytes, 100u);
}

TEST(EdgeCostSpecs, IssueAndCompletionEdges) {
  Graph g(2);
  const auto pre = g.add_calc(1, 0.0);
  const auto post = g.add_post(1);
  const auto s = g.add_send(0, 1, 300'000);
  const auto r = g.add_recv(1, 0, 300'000);
  const auto w = g.add_calc(0, 0.0);
  g.add_local_edge(pre, post);
  g.add_issue_edge(post, r, /*through_post=*/true);
  g.add_comm_edge(s, r, true);
  g.add_send_completion_edge(r, w);
  g.finalize();
  const Edge& issue = g.edges()[1];
  EXPECT_EQ(issue.kind, EdgeKind::kIssue);
  EXPECT_EQ(issue.o_mult, 0);
  EXPECT_EQ(issue.l_mult, 2);
  const Edge& compl_edge = g.edges()[3];
  EXPECT_EQ(compl_edge.kind, EdgeKind::kSendCompletion);
  EXPECT_EQ(compl_edge.o_mult, 1);
  // Wire pairs of protocol edges refer to the message's (sender, receiver).
  EXPECT_EQ(g.edge_wire_pair(issue), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(g.edge_wire_pair(compl_edge), (std::pair<int, int>{0, 1}));
}

TEST(CostSemantics, VertexCosts) {
  loggops::Params p;
  p.o = 100.0;
  p.O = 0.5;
  Vertex calc;
  calc.kind = VertexKind::kCalc;
  calc.duration = 77.0;
  EXPECT_DOUBLE_EQ(vertex_cost(calc, p), 77.0);
  Vertex send;
  send.kind = VertexKind::kSend;
  send.bytes = 10;
  EXPECT_DOUBLE_EQ(vertex_cost(send, p), 105.0);
  Vertex post;
  post.kind = VertexKind::kPost;
  EXPECT_DOUBLE_EQ(vertex_cost(post, p), 100.0);
}

TEST(CostSemantics, EdgeCosts) {
  const Graph g = two_rank_pair(true);
  loggops::Params p;
  p.L = 10.0;
  p.o = 3.0;
  p.G = 2.0;
  // Rendezvous comm edge: 3L + (100-1)*G.
  EXPECT_DOUBLE_EQ(edge_cost(g, g.edges()[0], p), 3 * 10.0 + 99 * 2.0);
}

TEST(Stats, StringSummarizesCounts) {
  const Graph g = two_rank_pair(false);
  const auto s = g.stats_string();
  EXPECT_NE(s.find("send=1"), std::string::npos);
  EXPECT_NE(s.find("comm=1"), std::string::npos);
  // Campaign cache memory is observable per graph.
  EXPECT_NE(s.find("bytes="), std::string::npos);
  EXPECT_EQ(s.find("bytes=0"), std::string::npos);
}

TEST(Stats, MemoryBytesCoversVertexAndEdgeStorage) {
  const Graph g = two_rank_pair(false);
  const std::size_t n = g.num_vertices();
  const std::size_t ne = g.num_edges();
  const Graph::TopoSlots& ts = g.topo_slots();
  const auto bytes = [](const std::vector<std::uint32_t>& v) {
    return v.size() * sizeof(v[0]);
  };
  // Every array is held: vertex and edge lists, the out-CSR, topo order,
  // partner table, and each topo-slot array.
  EXPECT_GE(g.memory_bytes(),
            n * sizeof(Vertex) + ne * sizeof(Edge) +
                (n + 1) * sizeof(std::uint64_t) + ne * sizeof(Graph::Adj) +
                n * sizeof(VertexId) + n * sizeof(VertexId) +
                bytes(ts.offsets) + bytes(ts.pred) + bytes(ts.edge) +
                bytes(ts.slot_of) + bytes(ts.pos_of) + bytes(ts.sinks));
}

}  // namespace
}  // namespace llamp::graph
