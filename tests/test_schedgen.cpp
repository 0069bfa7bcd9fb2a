#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "schedgen/schedgen.hpp"
#include "test_support.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"

namespace llamp::schedgen {
namespace {

using graph::EdgeKind;
using graph::VertexKind;

std::size_t count_kind(const graph::Graph& g, VertexKind k) {
  std::size_t n = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    n += g.vertex(v).kind == k;
  }
  return n;
}

std::size_t count_edges(const graph::Graph& g, EdgeKind k) {
  std::size_t n = 0;
  for (const graph::Edge& e : g.edges()) n += e.kind == k;
  return n;
}

TEST(ComputeInference, GapsBecomeCalcVertices) {
  trace::TraceBuilder tb(2, /*op_duration=*/100.0);
  tb.compute(0, 5'000.0);
  tb.send(0, 1, 64);
  tb.recv(1, 0, 64);
  const auto streams = expand_trace(tb.finish(), Options{});
  // Rank 0: calc(5000) then send.
  ASSERT_GE(streams[0].size(), 2u);
  EXPECT_EQ(streams[0][0].kind, MidOp::Kind::kCalc);
  EXPECT_DOUBLE_EQ(streams[0][0].duration, 5'000.0);
  EXPECT_EQ(streams[0][1].kind, MidOp::Kind::kSend);
}

TEST(ComputeInference, ComputeScaleMultiplies) {
  trace::TraceBuilder tb(2);
  tb.compute(0, 1'000.0);
  tb.send(0, 1, 8);
  tb.recv(1, 0, 8);
  Options opt;
  opt.compute_scale = 2.5;
  const auto streams = expand_trace(tb.finish(), opt);
  EXPECT_DOUBLE_EQ(streams[0][0].duration, 2'500.0);
}

TEST(BlockingP2p, GraphShape) {
  trace::TraceBuilder tb(2);
  tb.send(0, 1, 64);
  tb.recv(1, 0, 64);
  const auto g = build_graph(tb.finish());
  EXPECT_EQ(count_kind(g, VertexKind::kSend), 1u);
  EXPECT_EQ(count_kind(g, VertexKind::kRecv), 1u);
  EXPECT_EQ(count_kind(g, VertexKind::kPost), 0u);
  EXPECT_EQ(g.num_comm_edges(), 1u);
  EXPECT_EQ(count_edges(g, EdgeKind::kIssue), 0u);
  EXPECT_EQ(count_edges(g, EdgeKind::kSendCompletion), 0u);
}

TEST(NonblockingP2p, PostVertexAndNoIssueEdgeWhenEager) {
  trace::TraceBuilder tb(2);
  const auto rr = tb.irecv(1, 0, 64);
  tb.send(0, 1, 64);
  tb.compute(1, 500.0);
  tb.wait(1, rr);
  const auto g = build_graph(tb.finish());
  EXPECT_EQ(count_kind(g, VertexKind::kPost), 1u);
  EXPECT_EQ(count_edges(g, EdgeKind::kIssue), 0u);
}

TEST(Rendezvous, BlockingSendGetsCompletionAndIssueEdges) {
  trace::TraceBuilder tb(2);
  const std::uint64_t big = 512 * 1024;
  tb.send(0, 1, big);
  tb.compute(0, 1'000.0);  // the completion edge must land here
  tb.recv(1, 0, big);
  const auto g = build_graph(tb.finish());
  EXPECT_EQ(count_edges(g, EdgeKind::kIssue), 1u);
  EXPECT_EQ(count_edges(g, EdgeKind::kSendCompletion), 1u);
  // Comm edge carries the 3-hop handshake cost.
  for (const graph::Edge& e : g.edges()) {
    if (e.kind == EdgeKind::kComm) {
      EXPECT_EQ(e.l_mult, 3);
    }
  }
}

TEST(Rendezvous, IsendCompletionLandsOnWait) {
  trace::TraceBuilder tb(2);
  const std::uint64_t big = 512 * 1024;
  const auto sr = tb.isend(0, 1, big);
  tb.compute(0, 2'000.0);
  tb.wait(0, sr);
  const auto rr = tb.irecv(1, 0, big);
  tb.wait(1, rr);
  const auto g = build_graph(tb.finish());
  std::size_t completion_edges = 0;
  for (const graph::Edge& e : g.edges()) {
    if (e.kind != EdgeKind::kSendCompletion) continue;
    ++completion_edges;
    // With a nonblocking receiver the handshake completion is anchored on
    // the send and post vertices (t_s' is independent of the receiver's
    // wait position); the target is the sender's wait (a zero-cost calc).
    EXPECT_TRUE(g.vertex(e.from).kind == VertexKind::kSend ||
                g.vertex(e.from).kind == VertexKind::kPost);
    EXPECT_EQ(g.vertex(e.to).kind, VertexKind::kCalc);
    EXPECT_EQ(g.vertex(e.to).rank, 0);
  }
  EXPECT_EQ(completion_edges, 2u);
  // Nonblocking rendezvous recv: issue edge originates at the post vertex
  // with no extra overhead (the post already paid its o).
  for (const graph::Edge& e : g.edges()) {
    if (e.kind == EdgeKind::kIssue) {
      EXPECT_EQ(g.vertex(e.from).kind, VertexKind::kPost);
      EXPECT_EQ(e.o_mult, 0);
    }
  }
}

TEST(Rendezvous, ThresholdIsConfigurable) {
  trace::TraceBuilder tb(2);
  tb.send(0, 1, 1'000);
  tb.recv(1, 0, 1'000);
  Options opt;
  opt.rendezvous_threshold = 512;
  const auto g = build_graph(tb.finish(), opt);
  for (const graph::Edge& e : g.edges()) {
    if (e.kind == EdgeKind::kComm) {
      EXPECT_EQ(e.l_mult, 3);
    }
  }
}

TEST(Deadlock, HeadToHeadRendezvousSendsThrow) {
  // Both ranks issue a blocking rendezvous send before their recv: a real
  // MPI deadlock, surfacing as a cycle through completion edges.
  trace::TraceBuilder tb(2);
  const std::uint64_t big = 512 * 1024;
  tb.send(0, 1, big);
  tb.send(1, 0, big);
  tb.recv(0, 1, big);
  tb.recv(1, 0, big);
  EXPECT_THROW((void)build_graph(tb.finish()), Error);
}

TEST(Deadlock, HeadToHeadEagerSendsAreFine) {
  trace::TraceBuilder tb(2);
  tb.send(0, 1, 64);
  tb.send(1, 0, 64);
  tb.recv(0, 1, 64);
  tb.recv(1, 0, 64);
  EXPECT_NO_THROW((void)build_graph(tb.finish()));
}

TEST(Matching, UnmatchedSendThrows) {
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(Matching, UnmatchedRecvThrows) {
  std::vector<MidStream> streams(2);
  streams[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(Matching, CountMismatchThrows) {
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 8, 0));
  streams[0].push_back(MidOp::send(1, 8, 0));
  streams[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

/// The SchedError text build_graph_from_streams throws ("" if none).
std::string build_error(const std::vector<MidStream>& streams) {
  try {
    (void)build_graph_from_streams(streams, Options{});
  } catch (const SchedError& e) {
    return e.what();
  }
  return "";
}

TEST(MatchingErrors, CountMismatchNamesKeyAndCounts) {
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 8, 4));
  streams[0].push_back(MidOp::send(1, 8, 4));
  streams[1].push_back(MidOp::recv(0, 8, 4));
  EXPECT_EQ(build_error(streams),
            "schedgen: unmatched messages 0->1 tag 4: 2 send(s) vs 1 recv(s)");
  // A send key with no receive at all reports zero receives.
  std::vector<MidStream> lone(2);
  lone[1].push_back(MidOp::send(0, 8, 2));
  EXPECT_EQ(build_error(lone),
            "schedgen: unmatched messages 1->0 tag 2: 1 send(s) vs 0 recv(s)");
}

TEST(MatchingErrors, SendKeysAreCheckedBeforeRecvOnlyKeys) {
  // Key (0, 1, 0) has receives but no sends and sorts before the
  // mismatched send key (1, 0, 0): the send-side error still wins.
  std::vector<MidStream> streams(2);
  streams[1].push_back(MidOp::recv(0, 8, 0));
  streams[1].push_back(MidOp::send(0, 8, 0));
  streams[1].push_back(MidOp::send(0, 8, 0));
  streams[0].push_back(MidOp::recv(1, 8, 0));
  EXPECT_EQ(build_error(streams),
            "schedgen: unmatched messages 1->0 tag 0: 2 send(s) vs 1 recv(s)");
}

TEST(MatchingErrors, SmallestRecvOnlyKeyReportedOnceSendsMatch) {
  // Every send key matches; of the two recv-only keys (0, 1, 3) and
  // (1, 0, 1), the smaller is reported with its receive count.
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 8, 5));
  streams[1].push_back(MidOp::recv(0, 8, 5));
  streams[1].push_back(MidOp::recv(0, 8, 3));
  streams[1].push_back(MidOp::recv(0, 8, 3));
  streams[0].push_back(MidOp::recv(1, 8, 1));
  EXPECT_EQ(build_error(streams),
            "schedgen: 2 recv(s) 1<-0 tag 3 have no sender");
}

TEST(MatchingErrors, DuplicateRequestAndUnknownWaitNameRankAndRequest) {
  std::vector<MidStream> dup(2);
  dup[1].push_back(MidOp::isend(0, 8, 0, 9));
  dup[1].push_back(MidOp::irecv(0, 8, 0, 9));
  EXPECT_EQ(build_error(dup), "schedgen: rank 1: duplicate request 9");
  std::vector<MidStream> unknown(2);
  unknown[0].push_back(MidOp::isend(1, 8, 0, 3));
  unknown[0].push_back(MidOp::wait(3));
  unknown[0].push_back(MidOp::wait(3));
  EXPECT_EQ(build_error(unknown),
            "schedgen: rank 0: wait on unknown or already completed request 3");
  // Stream errors surface while streams are walked, before any matching.
  unknown[1].push_back(MidOp::recv(0, 8, 7));
  EXPECT_EQ(build_error(unknown),
            "schedgen: rank 0: wait on unknown or already completed request 3");
}

TEST(MatchingErrors, UnwaitedRequestNamesRankAndRequest) {
  // Rank 1 waits on the requests posted before and after request 5, so
  // the rank's check must single out the one it never waited on.
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::isend(1, 8, 0, 4));
  streams[0].push_back(MidOp::irecv(1, 8, 1, 2));
  streams[0].push_back(MidOp::wait(2));
  streams[0].push_back(MidOp::wait(4));
  streams[1].push_back(MidOp::irecv(0, 8, 0, 4));
  streams[1].push_back(MidOp::isend(0, 8, 1, 5));
  streams[1].push_back(MidOp::irecv(0, 8, 3, 6));
  streams[1].push_back(MidOp::wait(6));
  streams[1].push_back(MidOp::wait(4));
  EXPECT_EQ(build_error(streams),
            "schedgen: rank 1: request 5 never waited on");
  // Collective-range ids print in full.
  std::vector<MidStream> big(2);
  big[0].push_back(MidOp::isend(1, 8, 0, (std::int64_t{1} << 40) + 3));
  big[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_EQ(build_error(big),
            "schedgen: rank 0: request 1099511627779 never waited on");
}

TEST(Requests, IdIsFreeAgainAfterItsWait) {
  // Rank 0 reuses request 5 after waiting on it, which Trace::validate
  // accepts: the graph is the one built with distinct ids 5 and 6.
  const auto trace_with = [](std::int64_t second) {
    trace::Trace t(2);
    const auto ev = [](trace::Op op, double start, std::int64_t req) {
      trace::Event e;
      e.op = op;
      e.start = start;
      e.end = start + 1.0;
      e.peer = op == trace::Op::kWait ? -1 : op == trace::Op::kRecv ? 0 : 1;
      e.bytes = op == trace::Op::kWait ? 0 : 8;
      e.request = req;
      return e;
    };
    t.rank(0) = {ev(trace::Op::kIsend, 0.0, 5), ev(trace::Op::kWait, 2.0, 5),
                 ev(trace::Op::kIsend, 4.0, second),
                 ev(trace::Op::kWait, 6.0, second)};
    t.rank(1) = {ev(trace::Op::kRecv, 0.0, -1), ev(trace::Op::kRecv, 2.0, -1)};
    t.validate();
    return t;
  };
  const graph::Graph reused = build_graph(trace_with(5));
  const graph::Graph distinct = build_graph(trace_with(6));
  ASSERT_EQ(reused.num_vertices(), distinct.num_vertices());
  for (graph::VertexId v = 0; v < reused.num_vertices(); ++v) {
    const graph::Vertex& a = reused.vertex(v);
    const graph::Vertex& b = distinct.vertex(v);
    EXPECT_EQ(a.kind, b.kind) << v;
    EXPECT_EQ(a.rank, b.rank) << v;
    EXPECT_EQ(a.peer, b.peer) << v;
    EXPECT_EQ(a.bytes, b.bytes) << v;
    EXPECT_EQ(a.duration, b.duration) << v;
  }
  ASSERT_EQ(reused.num_edges(), distinct.num_edges());
  for (std::uint32_t e = 0; e < reused.num_edges(); ++e) {
    EXPECT_EQ(reused.edge(e).from, distinct.edge(e).from) << e;
    EXPECT_EQ(reused.edge(e).to, distinct.edge(e).to) << e;
    EXPECT_EQ(reused.edge(e).kind, distinct.edge(e).kind) << e;
  }
  EXPECT_EQ(count_edges(reused, EdgeKind::kComm), 2u);

  // An id still open stays a duplicate, and the unwaited check names the
  // first request posted and never waited on, not a reused id's earlier
  // (waited) posting.
  std::vector<MidStream> open(2);
  open[0].push_back(MidOp::isend(1, 8, 0, 5));
  open[0].push_back(MidOp::wait(5));
  open[0].push_back(MidOp::isend(1, 8, 0, 5));
  open[0].push_back(MidOp::isend(1, 8, 0, 5));
  EXPECT_EQ(build_error(open), "schedgen: rank 0: duplicate request 5");
  std::vector<MidStream> unwaited(2);
  unwaited[0].push_back(MidOp::isend(1, 8, 0, 5));
  unwaited[0].push_back(MidOp::wait(5));
  unwaited[0].push_back(MidOp::isend(1, 8, 0, 6));
  unwaited[0].push_back(MidOp::isend(1, 8, 0, 5));
  for (int i = 0; i < 3; ++i) unwaited[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_EQ(build_error(unwaited),
            "schedgen: rank 0: request 6 never waited on");
}

TEST(MatchingErrors, UnwaitedIrecvIsReportedAsItsRequest) {
  // A receive posted by an irecv has no completion vertex until its wait.
  // The rank's request check runs before any matching, so an irecv that is
  // never waited on is named as its request, even when its send exists;
  // matching's "recv <- never completed by a wait" guard is never reached
  // from a stream.
  std::vector<MidStream> streams(3);
  streams[0].push_back(MidOp::send(2, 8, 7));
  streams[1].push_back(MidOp::recv(2, 8, 1));
  streams[2].push_back(MidOp::send(1, 8, 1));
  streams[2].push_back(MidOp::irecv(0, 8, 7, 11));
  EXPECT_EQ(build_error(streams),
            "schedgen: rank 2: request 11 never waited on");
}

TEST(Matching, NonOvertakingOrderPreserved) {
  // Two same-tag messages: first send pairs with first posted recv.
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 100, 0));
  streams[0].push_back(MidOp::send(1, 200, 0));
  streams[1].push_back(MidOp::recv(0, 100, 0));
  streams[1].push_back(MidOp::recv(0, 200, 0));
  EXPECT_NO_THROW((void)build_graph_from_streams(streams, Options{}));
  // Swapping recv sizes breaks pairing (size mismatch at comm edges).
  std::vector<MidStream> bad(2);
  bad[0].push_back(MidOp::send(1, 100, 0));
  bad[0].push_back(MidOp::send(1, 200, 0));
  bad[1].push_back(MidOp::recv(0, 200, 0));
  bad[1].push_back(MidOp::recv(0, 100, 0));
  EXPECT_THROW((void)build_graph_from_streams(bad, Options{}), Error);
}

TEST(Matching, TagsSeparateChannels) {
  // Same sizes, different tags, posted in "crossed" order: tags keep the
  // channels independent so this must match cleanly.
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 100, 1));
  streams[0].push_back(MidOp::send(1, 100, 2));
  streams[1].push_back(MidOp::recv(0, 100, 2));
  streams[1].push_back(MidOp::recv(0, 100, 1));
  EXPECT_NO_THROW((void)build_graph_from_streams(streams, Options{}));
}

TEST(Waits, UnknownOrDuplicateWaitThrows) {
  std::vector<MidStream> streams(1);
  streams[0].push_back(MidOp::wait(7));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(Waits, MissingWaitThrows) {
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::isend(1, 8, 0, 1));
  streams[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(RandomPrograms, AlwaysBuildValidGraphs) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    testing::RandomProgramConfig cfg;
    cfg.seed = seed;
    cfg.nranks = 5;
    cfg.steps = 80;
    const auto t = testing::random_trace(cfg);
    graph::Graph g = build_graph(t);
    EXPECT_GT(g.num_vertices(), 0u);
    EXPECT_GT(g.num_comm_edges(), 0u);
  }
}

}  // namespace
}  // namespace llamp::schedgen
