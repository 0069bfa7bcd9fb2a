#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>

#include "trace/builder.hpp"
#include "trace/trace.hpp"
#include "trace/profile.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace llamp::trace {
namespace {

TEST(OpNames, RoundTrip) {
  for (const Op op :
       {Op::kInit, Op::kFinalize, Op::kSend, Op::kRecv, Op::kIsend,
        Op::kIrecv, Op::kWait, Op::kBarrier, Op::kBcast, Op::kReduce,
        Op::kAllreduce, Op::kAllgather, Op::kReduceScatter, Op::kGather,
        Op::kScatter, Op::kAlltoall}) {
    EXPECT_EQ(op_from_name(op_name(op)), op);
  }
  EXPECT_THROW((void)op_from_name("MPI_Bogus"), TraceError);
}

TEST(OpClassification, Collectives) {
  EXPECT_TRUE(is_collective(Op::kAllreduce));
  EXPECT_TRUE(is_collective(Op::kBarrier));
  EXPECT_FALSE(is_collective(Op::kSend));
  EXPECT_TRUE(is_send(Op::kIsend));
  EXPECT_TRUE(is_recv(Op::kRecv));
  EXPECT_FALSE(is_recv(Op::kWait));
}

TEST(Builder, ProducesValidTrace) {
  TraceBuilder tb(2);
  tb.compute(0, 1000.0);
  tb.send(0, 1, 256, 5);
  tb.recv(1, 0, 256, 5);
  tb.allreduce_all(8);
  const Trace t = tb.finish();
  EXPECT_EQ(t.nranks(), 2);
  // Init + send + allreduce + finalize on rank 0.
  EXPECT_EQ(t.rank(0).size(), 4u);
  EXPECT_EQ(t.rank(0)[1].op, Op::kSend);
  EXPECT_EQ(t.rank(0)[1].peer, 1);
  EXPECT_EQ(t.rank(0)[1].bytes, 256u);
  EXPECT_EQ(t.rank(0)[1].tag, 5);
}

TEST(Builder, ComputeAdvancesClock) {
  TraceBuilder tb(1, /*op_duration=*/100.0);
  const TimeNs after_init = tb.now(0);
  tb.compute(0, 5'000.0);
  EXPECT_DOUBLE_EQ(tb.now(0), after_init + 5'000.0);
}

TEST(Builder, RequestsMatchWaits) {
  TraceBuilder tb(2);
  const auto r1 = tb.irecv(1, 0, 64, 0);
  const auto s1 = tb.isend(0, 1, 64, 0);
  tb.wait(1, r1);
  tb.wait(0, s1);
  EXPECT_NO_THROW(tb.finish());
}

TEST(Builder, Errors) {
  EXPECT_THROW(TraceBuilder(0), TraceError);
  TraceBuilder tb(2);
  EXPECT_THROW(tb.compute(0, -1.0), TraceError);
  EXPECT_THROW(tb.collective(0, Op::kSend, 8), TraceError);
  tb.finish();
  EXPECT_THROW(tb.compute(0, 1.0), TraceError);
  EXPECT_THROW(tb.finish(), TraceError);
}

TEST(Validation, CatchesUnwaitedRequest) {
  TraceBuilder tb(2);
  (void)tb.isend(0, 1, 8, 0);
  tb.recv(1, 0, 8, 0);
  EXPECT_THROW(tb.finish(), TraceError);
}

TEST(Validation, CatchesOverlappingTimestamps) {
  Trace t(1);
  Event a;
  a.op = Op::kInit;
  a.start = 0;
  a.end = 10;
  Event b;
  b.op = Op::kFinalize;
  b.start = 5;  // overlaps a
  b.end = 20;
  t.rank(0) = {a, b};
  EXPECT_THROW(t.validate(), TraceError);
}

TEST(Validation, CatchesSelfMessage) {
  Trace t(2);
  Event e;
  e.op = Op::kSend;
  e.peer = 0;  // self
  e.start = 0;
  e.end = 1;
  t.rank(0) = {e};
  EXPECT_THROW(t.validate(), TraceError);
}

TEST(Validation, CatchesPeerOutOfRange) {
  Trace t(2);
  Event e;
  e.op = Op::kRecv;
  e.peer = 7;
  t.rank(0) = {e};
  EXPECT_THROW(t.validate(), TraceError);
}

TEST(Validation, CatchesCollectiveDivergence) {
  TraceBuilder tb(2);
  tb.collective(0, Op::kAllreduce, 8);
  tb.collective(1, Op::kAllreduce, 16);  // different payload
  EXPECT_THROW(tb.finish(), TraceError);
}

TEST(Validation, CatchesRootOutOfRange) {
  // A rooted collective's root must name a rank: neither taken mod P nor
  // left to fail later in schedgen.
  for (const Op op : {Op::kBcast, Op::kReduce, Op::kGather, Op::kScatter}) {
    for (const int root : {4, 7, -1, -6}) {
      SCOPED_TRACE(::testing::Message() << op_name(op) << " root " << root);
      TraceBuilder tb(4);
      for (int r = 0; r < 4; ++r) tb.collective(r, op, 64, root);
      EXPECT_THROW(tb.finish(), TraceError);
    }
    TraceBuilder tb(4);
    for (int r = 0; r < 4; ++r) tb.collective(r, op, 64, 3);
    EXPECT_NO_THROW(tb.finish());
  }
}

TEST(Validation, CatchesDuplicateRequest) {
  Trace t(2);
  Event a;
  a.op = Op::kIrecv;
  a.peer = 1;
  a.request = 3;
  a.start = 0;
  a.end = 1;
  Event b = a;
  b.start = 2;
  b.end = 3;
  Event w;
  w.op = Op::kWait;
  w.request = 3;
  w.start = 4;
  w.end = 5;
  t.rank(0) = {a, b, w};
  EXPECT_THROW(t.validate(), TraceError);
}

TEST(TraceIo, RoundTrip) {
  TraceBuilder tb(3);
  tb.compute(0, 1234.5);
  const auto req = tb.irecv(1, 0, 4096, 9);
  tb.send(0, 1, 4096, 9);
  tb.wait(1, req);
  tb.bcast_all(64, 2);
  const Trace t = tb.finish();
  const Trace parsed = from_text(to_text(t));
  EXPECT_EQ(parsed, t);
}

TEST(TraceIo, RejectsBadMagic) {
  EXPECT_THROW((void)from_text("NOT_A_TRACE 1\n"), TraceError);
  EXPECT_THROW((void)from_text(""), TraceError);
  EXPECT_THROW((void)from_text("LLAMP_TRACE 999\nranks 1\n"), TraceError);
}

TEST(TraceIo, RejectsMalformedBody) {
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\nranks 1\nMPI_Send:1:2\n"),
               TraceError);
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\nranks 2\nrank 1\n"),
               TraceError);  // ranks out of order
  EXPECT_THROW(
      (void)from_text("LLAMP_TRACE 1\nranks 1\nMPI_Init:0:1:-1:0:0:0:-1\n"),
      TraceError);  // event before rank header
}

TEST(TraceIo, GarbageFieldsAreLineNumberedTraceErrors) {
  // Numeric garbage in any field must raise a TraceError naming the line,
  // never the shared parsers' location-free Error (and never a crash).
  const auto expect_line_error = [](const std::string& body,
                                    const std::string& needle) {
    const std::string text = "LLAMP_TRACE 1\nranks 1\nrank 0\n" + body;
    try {
      (void)from_text(text);
      FAIL() << "accepted: " << body;
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_line_error("MPI_Send:abc:1:0:0:8:0:-1\n", "start time");
  expect_line_error("MPI_Send:0:xyz:0:0:8:0:-1\n", "end time");
  expect_line_error("MPI_Send:0:1:frog:0:8:0:-1\n", "peer");
  expect_line_error("MPI_Send:0:1:0:?:8:0:-1\n", "tag");
  expect_line_error("MPI_Send:0:1:0:0:many:0:-1\n", "byte count");
  expect_line_error("MPI_Send:0:1:0:0:-8:0:-1\n", "negative byte count");
  expect_line_error("MPI_Send:0:1:0:0:8:root:-1\n", "root");
  expect_line_error("MPI_Send:0:1:0:0:8:0:oops\n", "request");
  expect_line_error("MPI_Send:inf:1:0:0:8:0:-1\n", "start time");
  expect_line_error("MPI_Send:nan:1:0:0:8:0:-1\n", "start time");
  expect_line_error("MPI_Frobnicate:0:1:0:0:8:0:-1\n", "unknown operation");
  expect_line_error("MPI_Send:0:1:7:0:8:0:-1\n", "peer 7 out of range");
  expect_line_error("MPI_Bcast:0:1:-1:0:8:7:-1\n", "root 7 out of range");
  expect_line_error("MPI_Bcast:0:1:-1:0:8:-2:-1\n", "root -2 out of range");
}

TEST(TraceIo, GarbageHeadersAreTraceErrors) {
  EXPECT_THROW((void)from_text("LLAMP_TRACE abc\nranks 1\nrank 0\n"),
               TraceError);  // non-numeric version
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\nranks many\nrank 0\n"),
               TraceError);  // non-numeric rank count
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\nranks 2\nrank zero\n"),
               TraceError);  // non-numeric rank header
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\nranks 0\n"), TraceError);
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\nranks -3\n"), TraceError);
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\n"), TraceError);
}

TEST(TraceIo, EarlyEofIsTruncationNotSilentShrink) {
  // A file cut off between rank sections must not parse as a smaller job:
  // before the hardening this "succeeded" with empty ranks and analyses
  // quietly ran on a fraction of the trace.
  try {
    (void)from_text("LLAMP_TRACE 1\nranks 4\nrank 0\n"
                    "MPI_Init:0:1:-1:0:0:0:-1\nrank 1\n");
    FAIL() << "accepted a truncated trace";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("2 of 4"), std::string::npos)
        << e.what();
  }
  // The declared rank count alone, with no sections at all, is truncation
  // too.
  EXPECT_THROW((void)from_text("LLAMP_TRACE 1\nranks 2\n"), TraceError);
}

TEST(TraceIo, TraceErrorsAreUsageErrors) {
  // Malformed traces are user input: every CLI maps UsageError to exit 2,
  // and TraceError must ride that path.
  static_assert(std::is_base_of_v<UsageError, TraceError>);
  try {
    (void)from_text("garbage\n");
    FAIL();
  } catch (const UsageError&) {
    // Caught through the UsageError base — the property the exit-code
    // mapping relies on.
  }
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  const auto t = from_text(
      "LLAMP_TRACE 1\nranks 1\nrank 0\n# a comment\n\n"
      "MPI_Init:0.000:1.000:-1:0:0:0:-1\n");
  EXPECT_EQ(t.rank(0).size(), 1u);
}

TEST(TraceIo, FileRoundTrip) {
  TraceBuilder tb(2);
  tb.send(0, 1, 8, 0);
  tb.recv(1, 0, 8, 0);
  const Trace t = tb.finish();
  const std::string path = ::testing::TempDir() + "/llamp_trace_test.txt";
  save_trace(path, t);
  EXPECT_EQ(load_trace(path), t);
  EXPECT_THROW((void)load_trace("/nonexistent/path/x.txt"), Error);
}

TEST(Profile, CountsAndMatrix) {
  TraceBuilder tb(3, /*op_duration=*/10.0);
  tb.compute(0, 100.0);
  tb.send(0, 1, 1024, 0);
  tb.recv(1, 0, 1024, 0);
  const auto req = tb.irecv(2, 0, 16, 1);
  const auto sreq = tb.isend(0, 2, 16, 1);
  tb.wait(2, req);
  tb.wait(0, sreq);
  tb.allreduce_all(8);
  const auto prof = profile_trace(tb.finish());
  EXPECT_EQ(prof.nranks, 3);
  EXPECT_EQ(prof.p2p_messages, 2u);
  EXPECT_EQ(prof.p2p_bytes, 1040u);
  EXPECT_EQ(prof.max_message_bytes, 1024u);
  EXPECT_DOUBLE_EQ(prof.avg_message_bytes, 520.0);
  EXPECT_EQ(prof.collective_calls, 3u);  // one allreduce seen by 3 ranks
  EXPECT_EQ(prof.bytes_between(0, 1), 1024u);
  EXPECT_EQ(prof.bytes_between(0, 2), 16u);
  EXPECT_EQ(prof.bytes_between(1, 0), 0u);  // directed
  EXPECT_DOUBLE_EQ(prof.total_gap_time, 100.0);  // the one compute gap
  EXPECT_EQ(prof.op_counts.at(Op::kSend), 1u);
  EXPECT_EQ(prof.op_counts.at(Op::kAllreduce), 3u);
  // 1024 lands in the [1k, 2k) bucket, 16 in [16, 32).
  EXPECT_EQ(prof.size_histogram[10], 1u);
  EXPECT_EQ(prof.size_histogram[4], 1u);
  const auto text = prof.to_string();
  EXPECT_NE(text.find("3 ranks"), std::string::npos);
  EXPECT_NE(text.find("MPI_Allreduce=3"), std::string::npos);
}

TEST(Profile, EmptyMessagesAndSpan) {
  TraceBuilder tb(2, /*op_duration=*/5.0);
  tb.send(0, 1, 0, 0);
  tb.recv(1, 0, 0, 0);
  const auto prof = profile_trace(tb.finish());
  EXPECT_EQ(prof.p2p_messages, 1u);
  EXPECT_EQ(prof.p2p_bytes, 0u);
  EXPECT_DOUBLE_EQ(prof.avg_message_bytes, 0.0);
  EXPECT_EQ(prof.size_histogram[0], 1u);
  EXPECT_GT(prof.span, 0.0);
  EXPECT_GT(prof.total_mpi_time, 0.0);
}

}  // namespace
}  // namespace llamp::trace
