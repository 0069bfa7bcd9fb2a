#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "apps/registry.hpp"
#include "test_support.hpp"
#include "topo/spaces.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"

namespace llamp::core {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.apps = {"lulesh", "hpcg"};
  spec.ranks = {8};
  spec.scales = {0.02};
  spec.delta_Ls = {0.0, us(10.0), us(20.0)};
  return spec;
}

TEST(CampaignExpansion, GridOrderIsAppsOuterConfigsInner) {
  CampaignSpec spec = small_spec();
  spec.topologies = {"none", "fat-tree"};
  spec.configs = {{"a", loggops::NetworkConfig::cscs_testbed(), true},
                  {"b", loggops::NetworkConfig::piz_daint(), true}};
  const Campaign c(spec);
  const auto& sc = c.scenarios();
  ASSERT_EQ(sc.size(), 2u * 2u * 2u);  // 2 apps x 2 topologies x 2 configs
  EXPECT_EQ(sc[0].app, "lulesh");
  EXPECT_EQ(sc[0].topology, "none");
  EXPECT_EQ(sc[0].config, "a");
  EXPECT_EQ(sc[1].config, "b");       // configs innermost
  EXPECT_EQ(sc[2].topology, "fat-tree");
  EXPECT_EQ(sc[4].app, "hpcg");       // apps outermost
}

TEST(CampaignExpansion, ClampedRankCollisionsAreDeduplicated) {
  CampaignSpec spec = small_spec();
  spec.apps = {"lulesh"};
  spec.ranks = {8, 9, 27};  // LULESH wants cubes: 9 clamps onto 8
  const Campaign c(spec);
  ASSERT_EQ(c.scenarios().size(), 2u);
  EXPECT_EQ(c.scenarios()[0].ranks, 8);
  EXPECT_EQ(c.scenarios()[1].ranks, 27);
}

TEST(CampaignExpansion, DuplicateAxisValuesAreDeduplicated) {
  CampaignSpec spec = small_spec();
  spec.apps = {"lulesh", "lulesh"};
  spec.scales = {0.02, 0.02};
  spec.topologies = {"none", "none"};
  const Campaign c(spec);
  EXPECT_EQ(c.scenarios().size(), 1u);  // never analyze one scenario twice

  // Equal parameter vectors dedupe whatever their labels...
  spec.configs = {{"x", loggops::NetworkConfig::cscs_testbed(), true},
                  {"y", loggops::NetworkConfig::cscs_testbed(), true}};
  EXPECT_EQ(Campaign(spec).scenarios().size(), 1u);
  // ...but one label on *distinct* parameters is ambiguous.
  spec.configs = {{"a", loggops::NetworkConfig::cscs_testbed(), true},
                  {"a", loggops::NetworkConfig::piz_daint(), true}};
  EXPECT_THROW(Campaign{spec}, UsageError);
}

TEST(CampaignExpansion, InvalidLogGpsVariantIsAUsageError) {
  CampaignSpec spec = small_spec();
  loggops::Params bad = loggops::NetworkConfig::cscs_testbed();
  bad.L = -5.0;
  spec.configs = {{"bad", bad, true}};
  EXPECT_THROW(Campaign{spec}, UsageError);
}

TEST(CampaignExpansion, PerAppOverheadFollowsTable2UnlessPinned) {
  CampaignSpec spec = small_spec();
  spec.apps = {"lulesh", "hpcg"};
  const Campaign c(spec);  // default config: o_is_default = true
  EXPECT_NE(c.scenarios()[0].params.o, c.scenarios()[1].params.o);

  loggops::Params pinned = loggops::NetworkConfig::cscs_testbed(7'777.0);
  spec.configs = {{"pinned", pinned, /*o_is_default=*/false}};
  const Campaign p(spec);
  EXPECT_EQ(p.scenarios()[0].params.o, 7'777.0);
  EXPECT_EQ(p.scenarios()[1].params.o, 7'777.0);
}

TEST(CampaignExpansion, DegenerateSpecsAreUsageErrors) {
  EXPECT_THROW(Campaign(CampaignSpec{}), UsageError);  // empty app list
  {
    CampaignSpec spec = small_spec();
    spec.delta_Ls = {-1.0};
    EXPECT_THROW(Campaign{spec}, UsageError);  // negative ΔL
  }
  {
    CampaignSpec spec = small_spec();
    spec.delta_Ls.clear();
    EXPECT_THROW(Campaign{spec}, UsageError);  // empty ΔL grid
  }
  {
    CampaignSpec spec = small_spec();
    spec.topologies = {"torus"};
    EXPECT_THROW(Campaign{spec}, UsageError);  // unknown topology
  }
  {
    CampaignSpec spec = small_spec();
    spec.scales = {0.0};
    EXPECT_THROW(Campaign{spec}, UsageError);  // non-positive scale
  }
  {
    CampaignSpec spec = small_spec();
    spec.band_percents = {-1.0};
    EXPECT_THROW(Campaign{spec}, UsageError);  // negative band
  }
  EXPECT_THROW(Campaign(std::vector<Scenario>{}), UsageError);
}

TEST(CampaignExpansion, NonFiniteBandPercentIsAUsageError) {
  // A non-finite percent would run the tolerance search on an infinite
  // budget; analyze and mc reject it with the same wording.
  for (const double pct : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    CampaignSpec spec = small_spec();
    spec.band_percents = {1.0, pct};
    try {
      const Campaign c(spec);
      ADD_FAILURE() << "band percent " << pct << " accepted";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("must be finite and >= 0"),
                std::string::npos)
          << e.what();
    }
    std::vector<Scenario> scenarios = Campaign(small_spec()).scenarios();
    scenarios[0].band_percents = {pct};
    EXPECT_THROW(Campaign(std::move(scenarios)), UsageError);
  }
}

TEST(CampaignRun, TopologyScenarioGridsMayComeInAnyOrder) {
  // Explicit scenario lists may order their ΔL grids arbitrarily; every
  // point must equal the same point of the ascending grid bit for bit.
  CampaignSpec spec = small_spec();
  spec.apps = {"lulesh"};
  spec.topologies = {"fat-tree"};
  spec.delta_Ls = {0.0, us(5.0), us(10.0), us(20.0)};
  const auto ascending = Campaign(spec).run();
  std::vector<Scenario> scenarios = Campaign(spec).scenarios();
  scenarios[0].delta_Ls = {us(20.0), 0.0, us(10.0), us(5.0)};
  const auto shuffled = Campaign(std::move(scenarios)).run();
  ASSERT_EQ(ascending.size(), 1u);
  ASSERT_EQ(shuffled.size(), 1u);
  const std::vector<std::size_t> order = {3, 0, 2, 1};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& got = shuffled[0].points[i];
    const auto& want = ascending[0].points[order[i]];
    EXPECT_EQ(got.delta_L, want.delta_L);
    EXPECT_EQ(got.runtime, want.runtime) << "i=" << i;
    EXPECT_EQ(got.lambda, want.lambda) << "i=" << i;
  }
}

TEST(CampaignRun, GraphsAreCachedAcrossTopologiesAndConfigs) {
  CampaignSpec spec = small_spec();
  spec.apps = {"lulesh"};
  spec.topologies = {"none", "fat-tree", "dragonfly"};
  spec.configs = {{"a", loggops::NetworkConfig::cscs_testbed(), true},
                  {"b", loggops::NetworkConfig::piz_daint(), true}};
  Campaign c(spec);
  (void)c.run();
  EXPECT_EQ(c.stats().scenarios_run, 6u);
  // One (app, ranks, scale, S) tuple -> one graph for all six scenarios.
  EXPECT_EQ(c.stats().graphs_built, 1u);
}

TEST(CampaignRun, DistinctRendezvousThresholdsSplitTheGraphCache) {
  CampaignSpec spec = small_spec();
  spec.apps = {"lulesh"};
  loggops::Params small_s = loggops::NetworkConfig::cscs_testbed();
  small_s.S = 4 * 1024;
  spec.configs = {{"a", loggops::NetworkConfig::cscs_testbed(), true},
                  {"b", small_s, true}};
  Campaign c(spec);
  (void)c.run();
  EXPECT_EQ(c.stats().graphs_built, 2u);
}

TEST(CampaignRun, FlatScenarioMatchesLatencyAnalyzer) {
  CampaignSpec spec = small_spec();
  spec.apps = {"milc"};
  spec.band_percents = {1.0, 5.0};
  Campaign c(spec);
  const auto results = c.run();
  ASSERT_EQ(results.size(), 1u);
  const auto& res = results[0];

  const auto g = schedgen::build_graph(
      apps::make_app_trace("milc", res.scenario.ranks, res.scenario.scale));
  const LatencyAnalyzer an(g, res.scenario.params);
  EXPECT_DOUBLE_EQ(res.base_runtime, an.base_runtime());
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    const TimeNs d = res.scenario.delta_Ls[i];
    EXPECT_DOUBLE_EQ(res.points[i].runtime, an.predict_runtime(d));
    EXPECT_DOUBLE_EQ(res.points[i].lambda, an.lambda_L(d));
    EXPECT_DOUBLE_EQ(res.points[i].rho, an.rho_L(d));
  }
  ASSERT_EQ(res.bands.size(), 2u);
  EXPECT_DOUBLE_EQ(res.bands[0].tolerance_delta, an.tolerance_delta(1.0));
  EXPECT_DOUBLE_EQ(res.bands[1].tolerance_delta, an.tolerance_delta(5.0));
}

TEST(CampaignRun, TopologyScenarioMatchesDirectWireSpaceSolve) {
  // Every number of a topology cell is the scalar reference's, bit for
  // bit: per-point dense solves of a hand-built wire-latency lowering, and
  // per-band one-lane searches opened from the base solve.  The grid is
  // unordered, repeats a point and starts off ΔL = 0.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  CampaignSpec spec = small_spec();
  spec.apps = {"icon"};
  spec.topologies = {"fat-tree", "dragonfly"};
  spec.band_percents = {1.0, 2.0, 5.0};
  std::vector<Scenario> scenarios = Campaign(spec).scenarios();
  ASSERT_EQ(scenarios.size(), 2u);
  for (Scenario& s : scenarios) {
    s.delta_Ls = {us(15.0), us(2.5), 0.0, us(40.0), us(15.0), us(5.0)};
  }
  const auto results = Campaign(scenarios, spec.topo).run();
  ASSERT_EQ(results.size(), 2u);

  const Scenario& s0 = scenarios[0];
  const auto g =
      schedgen::build_graph(apps::make_app_trace("icon", s0.ranks, s0.scale));
  const topo::FatTree ft(spec.topo.ft_radix);
  const topo::Dragonfly df(spec.topo.df_groups, spec.topo.df_routers,
                           spec.topo.df_hosts);
  const topo::Topology* const shapes[] = {&ft, &df};
  const double base = spec.topo.l_wire;
  for (std::size_t t = 0; t < results.size(); ++t) {
    const auto& res = results[t];
    SCOPED_TRACE(res.scenario.topology);
    EXPECT_EQ(res.scenario.topology, spec.topologies[t]);
    auto space = std::make_shared<lp::LinkClassParamSpace>(
        topo::make_wire_latency_space(
            res.scenario.params, *shapes[t],
            topo::identity_placement(res.scenario.ranks), base,
            spec.topo.d_switch));
    const lp::LoweredProblem solver(g, space);
    lp::LoweredProblem::Cursor cur;
    const lp::LoweredProblem::BatchPoint at = solver.solve(0, base, cur).point();
    EXPECT_EQ(bits(res.base_runtime), bits(at.value));
    ASSERT_EQ(res.points.size(), res.scenario.delta_Ls.size());
    for (std::size_t i = 0; i < res.points.size(); ++i) {
      const double x = base + res.scenario.delta_Ls[i];
      const auto& sol = solver.solve(0, x, cur);
      const double rho =
          sol.value > 0.0 ? x * sol.gradient[0] / sol.value : 0.0;
      EXPECT_EQ(bits(res.points[i].runtime), bits(sol.value)) << "i=" << i;
      EXPECT_EQ(bits(res.points[i].lambda), bits(sol.gradient[0]))
          << "i=" << i;
      EXPECT_EQ(bits(res.points[i].rho), bits(rho)) << "i=" << i;
    }
    ASSERT_EQ(res.bands.size(), spec.band_percents.size());
    for (std::size_t b = 0; b < res.bands.size(); ++b) {
      const double pct = spec.band_percents[b];
      const double tol = llamp::testing::tolerance(
          solver, 0, base, at.value * (1.0 + pct / 100.0), cur, &at);
      EXPECT_EQ(res.bands[b].percent, pct);
      EXPECT_EQ(bits(res.bands[b].tolerance_delta),
                bits(std::isfinite(tol) ? tol - base : tol))
          << "pct=" << pct;
    }
  }
}

TEST(CampaignRun, ResultsAreIdenticalAcrossThreadCounts) {
  CampaignSpec spec = small_spec();
  spec.topologies = {"none", "fat-tree"};
  spec.band_percents = {1.0};

  spec.threads = 1;
  Campaign serial(spec);
  const auto a = serial.run();
  spec.threads = 8;
  Campaign parallel(spec);
  const auto b = parallel.run();

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scenario.app, b[i].scenario.app);
    EXPECT_EQ(a[i].scenario.topology, b[i].scenario.topology);
    for (std::size_t j = 0; j < a[i].points.size(); ++j) {
      // Bitwise equality, not NEAR: determinism is the contract.
      EXPECT_EQ(a[i].points[j].runtime, b[i].points[j].runtime);
      EXPECT_EQ(a[i].points[j].lambda, b[i].points[j].lambda);
      EXPECT_EQ(a[i].points[j].rho, b[i].points[j].rho);
    }
  }
  // And so are the rendered emitter bytes, in every format.
  for (const auto format :
       {OutputFormat::kTable, OutputFormat::kCsv, OutputFormat::kJson}) {
    EXPECT_EQ(render(campaign_points_table(a, format == OutputFormat::kTable),
                     format),
              render(campaign_points_table(b, format == OutputFormat::kTable),
                     format));
  }
}

TEST(CampaignRun, ProbeValuesLandOnTheMatchingPoints) {
  CampaignSpec spec = small_spec();
  spec.apps = {"lulesh"};
  Campaign c(spec);
  const auto results = c.run([](const Scenario& s, const graph::Graph& g) {
    EXPECT_GT(g.num_vertices(), 0u);
    std::vector<double> v;
    for (std::size_t i = 0; i < s.delta_Ls.size(); ++i) {
      v.push_back(100.0 * static_cast<double>(i));
    }
    return v;
  });
  ASSERT_EQ(results.size(), 1u);
  for (std::size_t i = 0; i < results[0].points.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0].points[i].probe,
                     100.0 * static_cast<double>(i));
  }
  // A probe name appends the probe column to the shared emitters.
  const Table with_probe =
      campaign_points_table(results, /*human=*/false, "measured_ns");
  EXPECT_EQ(with_probe.headers().back(), "measured_ns");
  EXPECT_EQ(with_probe.data().at(1).back().text, "100.0");
  const Table without_probe = campaign_points_table(results, false);
  EXPECT_EQ(without_probe.headers().back(), "rho_l");
  // A probe returning the wrong arity is an analysis error.
  EXPECT_THROW(c.run([](const Scenario&, const graph::Graph&) {
                 return std::vector<double>{1.0};
               }),
               Error);
}

TEST(CampaignRun, TooSmallOrMalformedTopologyIsAUsageError) {
  CampaignSpec spec = small_spec();
  spec.apps = {"hpcg"};
  spec.ranks = {64};
  spec.topologies = {"fat-tree"};
  spec.topo.ft_radix = 4;  // 16 nodes < 64 ranks
  // Raised at construction, before any graph is built.
  EXPECT_THROW(Campaign{spec}, UsageError);
  spec.topo.ft_radix = 0;  // invalid shape
  EXPECT_THROW(Campaign{spec}, UsageError);
}

// ---------------------------------------------------------------------------
// The mc axis
// ---------------------------------------------------------------------------

TEST(CampaignMc, AxisOffLeavesResultsUntouched) {
  CampaignSpec spec = small_spec();
  Campaign campaign(spec);
  for (const auto& res : campaign.run()) EXPECT_TRUE(res.mc.empty());
}

TEST(CampaignMc, SummariesAlignAndAreThreadCountInvariant) {
  CampaignSpec spec = small_spec();
  spec.mc.samples = 16;
  spec.mc.seed = 9;
  spec.mc.sigma_L = 0.05;
  spec.mc.noise.sigma = 0.003;

  spec.threads = 1;
  const auto serial = Campaign(spec).run();
  spec.threads = 8;
  const auto parallel = Campaign(spec).run();

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].mc.size(), serial[i].points.size());
    for (std::size_t k = 0; k < serial[i].mc.size(); ++k) {
      EXPECT_EQ(serial[i].mc[k].mean, parallel[i].mc[k].mean);
      EXPECT_EQ(serial[i].mc[k].stddev, parallel[i].mc[k].stddev);
      EXPECT_EQ(serial[i].mc[k].q05, parallel[i].mc[k].q05);
      EXPECT_EQ(serial[i].mc[k].q95, parallel[i].mc[k].q95);
      EXPECT_GT(serial[i].mc[k].stddev, 0.0);
      EXPECT_LE(serial[i].mc[k].q05, serial[i].mc[k].q95);
    }
  }
}

TEST(CampaignMc, DegenerateAxisReproducesDeterministicPoints) {
  // One sample, zero-variance knobs: the mc mean at each grid point is the
  // deterministic runtime at that point, bitwise.
  CampaignSpec spec = small_spec();
  spec.mc.samples = 1;
  const auto results = Campaign(spec).run();
  for (const auto& res : results) {
    ASSERT_EQ(res.mc.size(), res.points.size());
    for (std::size_t k = 0; k < res.points.size(); ++k) {
      EXPECT_EQ(res.mc[k].mean, res.points[k].runtime);
      EXPECT_EQ(res.mc[k].q05, res.points[k].runtime);
      EXPECT_EQ(res.mc[k].q95, res.points[k].runtime);
      EXPECT_EQ(res.mc[k].stddev, 0.0);
    }
  }
}

TEST(CampaignMc, AxisValidation) {
  {
    CampaignSpec spec = small_spec();
    spec.mc.samples = -1;
    EXPECT_THROW(Campaign{spec}, UsageError);
  }
  {
    CampaignSpec spec = small_spec();
    spec.mc.samples = 4;
    spec.mc.sigma_L = -0.5;
    EXPECT_THROW(Campaign{spec}, UsageError);
  }
  {
    CampaignSpec spec = small_spec();
    spec.mc.samples = 4;
    spec.mc.noise.bias = -1.5;
    EXPECT_THROW(Campaign{spec}, UsageError);
  }
  {
    // Malformed knobs are rejected even with the axis off...
    CampaignSpec spec = small_spec();
    spec.mc.sigma_G = -0.2;
    EXPECT_THROW(Campaign{spec}, UsageError);
  }
  {
    // ...and well-formed jitter with samples == 0 is an orphan, not a
    // silent deterministic run.
    CampaignSpec spec = small_spec();
    spec.mc.sigma_L = 0.05;
    EXPECT_THROW(Campaign{spec}, UsageError);
  }
  {
    // Physical topologies have no single L to resample.
    CampaignSpec spec = small_spec();
    spec.topologies = {"fat-tree"};
    spec.mc.samples = 4;
    EXPECT_THROW(Campaign{spec}, UsageError);
  }
}

TEST(CampaignMc, ExplicitScenarioListCarriesTheAxis) {
  CampaignSpec grid = small_spec();
  std::vector<Scenario> scenarios = Campaign(grid).scenarios();
  McAxis mc;
  mc.samples = 8;
  mc.sigma_L = 0.05;
  Campaign campaign(std::move(scenarios), TopologyOptions{}, 0, mc);
  for (const auto& res : campaign.run()) {
    ASSERT_EQ(res.mc.size(), res.points.size());
    EXPECT_GT(res.mc[0].stddev, 0.0);
  }
}

}  // namespace
}  // namespace llamp::core
