#include <gtest/gtest.h>

#include <memory>

#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "graph/graph_io.hpp"
#include "injector/cluster_emulator.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "trace/trace_io.hpp"
#include "util/stats.hpp"

namespace llamp {
namespace {

loggops::Params testbed() {
  return loggops::NetworkConfig::cscs_testbed(5'000.0);
}

TEST(FullPipeline, SerializationIsTransparent) {
  // app -> trace -> text -> trace -> graph -> GOAL -> graph: every stage
  // must preserve the analysis result bit-for-bit.
  const auto t = apps::make_app_trace("cloverleaf", 8, 0.1);
  const auto t2 = trace::from_text(trace::to_text(t));
  ASSERT_EQ(t, t2);
  const auto g = schedgen::build_graph(t2);
  const auto g2 = graph::goal_from_text(graph::to_goal(g));
  const double t_direct = sim::Simulator(g).run(testbed()).makespan;
  const double t_reloaded = sim::Simulator(g2).run(testbed()).makespan;
  EXPECT_DOUBLE_EQ(t_direct, t_reloaded);
}

TEST(FullPipeline, ValidationRrmseUnderTwoPercent) {
  // The paper's Fig. 9 headline: predictions within 2% RRMSE of measured
  // runs, here against the cluster emulator with its default noise.
  for (const char* app : {"lulesh", "milc", "icon"}) {
    const int ranks = apps::supported_ranks(app, 16);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.15));
    core::LatencyAnalyzer analyzer(g, testbed());
    injector::ClusterEmulator emulator(g, testbed());

    std::vector<double> measured, predicted;
    for (double d = 0.0; d <= us(100.0); d += us(20.0)) {
      measured.push_back(emulator.measure(d, 5));
      predicted.push_back(analyzer.predict_runtime(d));
    }
    EXPECT_LT(rrmse_percent(measured, predicted), 2.0) << app;
  }
}

TEST(FullPipeline, CollectiveSwapChangesSensitivity) {
  // Fig. 10: ring allreduce makes ICON markedly more latency sensitive
  // than recursive doubling.
  const auto t = apps::make_app_trace("icon", 16, 0.2);
  schedgen::Options rd;
  rd.allreduce = schedgen::AllreduceAlgo::kRecursiveDoubling;
  schedgen::Options ring;
  ring.allreduce = schedgen::AllreduceAlgo::kRing;
  const auto g_rd = schedgen::build_graph(t, rd);
  const auto g_ring = schedgen::build_graph(t, ring);
  core::LatencyAnalyzer an_rd(g_rd, testbed());
  core::LatencyAnalyzer an_ring(g_ring, testbed());
  EXPECT_GT(an_ring.lambda_L(us(50.0)), an_rd.lambda_L(us(50.0)));
  EXPECT_LT(an_ring.tolerance_delta(5.0), an_rd.tolerance_delta(5.0));
}

TEST(FullPipeline, SimulatorAgreesWithAnalyzerOnApps) {
  for (const char* app : {"hpcg", "npb-mg", "lammps"}) {
    const auto g = schedgen::build_graph(apps::make_app_trace(app, 8, 0.1));
    core::LatencyAnalyzer analyzer(g, testbed());
    sim::Simulator sim(g);
    for (const double d : {0.0, us(10.0), us(50.0)}) {
      loggops::Params p = testbed();
      p.L += d;
      EXPECT_NEAR(sim.run(p).makespan, analyzer.predict_runtime(d),
                  1e-6 * analyzer.predict_runtime(d))
          << app << " delta=" << d;
    }
  }
}

TEST(FullPipeline, ToleranceBandsOrderLikeFig1) {
  // MILC < LULESH < ICON in every tolerance band.
  const auto g_milc =
      schedgen::build_graph(apps::make_app_trace("milc", 16, 0.15));
  const auto g_lulesh =
      schedgen::build_graph(apps::make_app_trace("lulesh", 27, 0.2));
  const auto g_icon =
      schedgen::build_graph(apps::make_app_trace("icon", 16, 0.3));
  core::LatencyAnalyzer milc(g_milc, testbed());
  core::LatencyAnalyzer lulesh(g_lulesh, testbed());
  core::LatencyAnalyzer icon(g_icon, testbed());
  for (const double pct : {1.0, 2.0, 5.0}) {
    EXPECT_LT(milc.tolerance_delta(pct), lulesh.tolerance_delta(pct)) << pct;
    EXPECT_LT(lulesh.tolerance_delta(pct), icon.tolerance_delta(pct)) << pct;
  }
}

TEST(FullPipeline, RandomProgramsSurviveEveryStage) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    testing::RandomProgramConfig cfg;
    cfg.seed = seed;
    cfg.nranks = 6;
    cfg.steps = 150;
    const auto t = testing::random_trace(cfg);
    const auto text = trace::to_text(t);
    const auto g = schedgen::build_graph(trace::from_text(text));
    const auto space = std::make_shared<lp::LatencyParamSpace>(testbed());
    lp::LoweredProblem solver(g, space);
    const auto sol = solver.solve(0, testbed().L);
    EXPECT_GT(sol.value, 0.0);
    EXPECT_GE(sol.gradient[0], 0.0);
  }
}

}  // namespace
}  // namespace llamp
