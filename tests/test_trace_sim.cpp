#include <gtest/gtest.h>

#include <memory>

#include "apps/registry.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_simulator.hpp"
#include "test_support.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"

namespace llamp::sim {
namespace {

loggops::Params test_params() {
  loggops::Params p;
  p.L = 3'000.0;
  p.o = 1'200.0;
  p.G = 0.05;
  p.S = 256 * 1024;
  return p;
}

TEST(OperationalSemantics, EagerBlockingPair) {
  trace::TraceBuilder tb(2, 0.0);
  tb.compute(0, 1'000.0);
  tb.send(0, 1, 4);
  tb.compute(1, 500.0);
  tb.recv(1, 0, 4);
  TraceSimulator sim(tb.finish());
  loggops::Params p;
  p.L = 100.0;
  p.o = 10.0;
  p.G = 1.0;
  const auto res = sim.run(p);
  // Sender: 1000 + o.  Receiver: max(500, 1000 + o + L + 3G) + o.
  EXPECT_DOUBLE_EQ(res.rank_finish[0], 1'010.0);
  EXPECT_DOUBLE_EQ(res.rank_finish[1], 1'000.0 + 10.0 + 100.0 + 3.0 + 10.0);
  EXPECT_DOUBLE_EQ(res.makespan, res.rank_finish[1]);
}

TEST(OperationalSemantics, RendezvousBlockingPair) {
  trace::TraceBuilder tb(2, 0.0);
  const std::uint64_t big = 512 * 1024;
  tb.compute(0, 2'000.0);
  tb.send(0, 1, big);
  tb.compute(1, 500.0);
  tb.recv(1, 0, big);
  TraceSimulator sim(tb.finish());
  const loggops::Params p = test_params();
  const auto res = sim.run(p);
  const double B = (static_cast<double>(big) - 1) * p.G;
  const double tm = std::max(2'000.0 + p.o + p.L, 500.0 + p.o);
  const double t_r = tm + 2 * p.L + B + p.o;
  EXPECT_NEAR(res.rank_finish[1], t_r, 1e-6);
  EXPECT_NEAR(res.rank_finish[0], t_r + p.o, 1e-6);  // t_s' = t_r' + o
}

TEST(OperationalSemantics, LateSenderBlocksEagerReceiver) {
  // The receiver is rank 0 so the round-robin scheduler reaches it before
  // the (very late) sender has issued: it must suspend and be resumed.
  trace::TraceBuilder tb(2, 0.0);
  tb.recv(0, 1, 8);
  tb.compute(1, 1'000'000.0);  // very late sender
  tb.send(1, 0, 8);
  TraceSimulator sim(tb.finish());
  loggops::Params p;
  p.L = 10.0;
  p.o = 5.0;
  p.G = 0.0;
  const auto res = sim.run(p);
  EXPECT_DOUBLE_EQ(res.rank_finish[0], 1'000'000.0 + 5.0 + 10.0 + 5.0);
  EXPECT_GT(res.scheduler_passes, 1u);  // the receiver had to suspend
}

TEST(OperationalSemantics, SenderMayWaitBeforeReceiverWaits) {
  // The rendezvous handshake completes once the receive is *posted*: the
  // sender's wait may come first without deadlock, and its completion must
  // not depend on where the receiver's wait lands.
  trace::TraceBuilder tb(2, 0.0);
  const std::uint64_t big = 512 * 1024;
  const auto sreq = tb.isend(0, 1, big);
  tb.wait(0, sreq);  // sender waits immediately
  const auto rreq = tb.irecv(1, 0, big);
  tb.compute(1, 5'000'000.0);  // receiver computes forever before waiting
  tb.wait(1, rreq);
  TraceSimulator sim(tb.finish());
  const loggops::Params p = test_params();
  const auto res = sim.run(p);
  const double B = (static_cast<double>(big) - 1) * p.G;
  // t_s' = max(ts + o + L, t_post + o) + 2L + B + 2o with ts = t_post = 0.
  const double t_s = p.o + p.L + 2 * p.L + B + 2 * p.o;
  EXPECT_NEAR(res.rank_finish[0], t_s, 1e-6);
  // The receiver is dominated by its own compute, not by the handshake.
  EXPECT_NEAR(res.rank_finish[1], 5'000'000.0 + p.o + p.o, 1e-6);

}

TEST(OperationalSemantics, DeadlockDetected) {
  // Head-to-head blocking rendezvous sends.
  trace::TraceBuilder tb(2, 0.0);
  const std::uint64_t big = 512 * 1024;
  tb.send(0, 1, big);
  tb.send(1, 0, big);
  tb.recv(0, 1, big);
  tb.recv(1, 0, big);
  TraceSimulator sim(tb.finish());
  EXPECT_THROW((void)sim.run(test_params()), SimError);
}

TEST(OperationalSemantics, UnmatchedChannelThrows) {
  std::vector<schedgen::MidStream> streams(2);
  streams[0].push_back(schedgen::MidOp::send(1, 8, 0));
  TraceSimulator sim(std::move(streams), schedgen::Options{});
  EXPECT_THROW((void)sim.run(test_params()), SimError);
}

/// The repository's strongest property: the operational trace simulator,
/// which never sees an execution graph, agrees exactly with the LP solved
/// over Schedgen's graph — on random programs, across latencies, protocols,
/// and collective algorithms.
class TraceSimEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceSimEquivalence, MatchesGraphLpOnRandomPrograms) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam();
  cfg.nranks = 6;
  cfg.steps = 120;
  const auto t = testing::random_trace(cfg);

  schedgen::Options opts;
  loggops::Params p = test_params();
  opts.rendezvous_threshold = p.S;

  TraceSimulator trace_sim(t, opts);
  const auto g = schedgen::build_graph(t, opts);
  const auto space = std::make_shared<lp::LatencyParamSpace>(p);

  for (const double L : {0.0, 1'000.0, 25'000.0}) {
    p.L = L;
    const auto space_at = std::make_shared<lp::LatencyParamSpace>(p);
    lp::LoweredProblem solver(g, space_at);
    const double t_lp = solver.solve(0, L).value;
    const double t_op = trace_sim.run(p).makespan;
    EXPECT_NEAR(t_op, t_lp, 1e-6 * (1.0 + t_lp)) << "L=" << L;
  }
  (void)space;
}

TEST_P(TraceSimEquivalence, MatchesGraphReplayOnApps) {
  static const char* kApps[] = {"milc",   "hpcg",   "npb-ft",
                                "npb-lu", "lammps", "openmx"};
  const auto& app = kApps[GetParam() % 6];
  const auto t = apps::make_app_trace(app, 8, 0.08);
  const loggops::Params p = test_params();
  schedgen::Options opts;
  opts.rendezvous_threshold = p.S;

  TraceSimulator trace_sim(t, opts);
  const auto g = schedgen::build_graph(t, opts);
  Simulator graph_sim(g);
  EXPECT_NEAR(trace_sim.run(p).makespan, graph_sim.run(p).makespan,
              1e-6 * (1.0 + graph_sim.run(p).makespan))
      << app;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSimEquivalence,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(CollectiveAlgorithms, OperationalAgreementAcrossAlgos) {
  // Swap collective algorithms and keep the operational/graph agreement.
  trace::TraceBuilder tb(7, 0.0);
  for (int i = 0; i < 3; ++i) {
    for (int r = 0; r < 7; ++r) tb.compute(r, 1'000.0 * (r + 1));
    tb.allreduce_all(4096);
    tb.bcast_all(64 * 1024, 2);
    tb.alltoall_all(512);
  }
  const auto t = tb.finish();
  const loggops::Params p = test_params();
  for (const auto allreduce : {schedgen::AllreduceAlgo::kRecursiveDoubling,
                               schedgen::AllreduceAlgo::kRing}) {
    for (const auto bcast : {schedgen::BcastAlgo::kBinomialTree,
                             schedgen::BcastAlgo::kScatterAllgather}) {
      for (const auto alltoall : {schedgen::AlltoallAlgo::kLinear,
                                  schedgen::AlltoallAlgo::kBruck}) {
        schedgen::Options opts;
        opts.allreduce = allreduce;
        opts.bcast = bcast;
        opts.alltoall = alltoall;
        TraceSimulator trace_sim(t, opts);
        const auto g = schedgen::build_graph(t, opts);
        Simulator graph_sim(g);
        EXPECT_NEAR(trace_sim.run(p).makespan, graph_sim.run(p).makespan,
                    1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace llamp::sim
