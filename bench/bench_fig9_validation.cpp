// Fig. 9 + Table II: the validation experiment.  For each application and
// scale, sweep the injected latency ΔL, compare cluster-emulator
// "measurements" (10-run averages in the paper, 5 here) against LLAMP's LP
// forecast, and report RRMSE plus the λ_L / ρ_L curves and tolerance bands.
// A systematic-bias variant reproduces the MILC persistent-ops mismatch the
// paper observes at 32/64 nodes.  A noise-σ sweep at the end quantifies how
// much measurement noise the <2% RRMSE headline survives (DESIGN.md §5).
//
// The whole grid runs through the core::Campaign engine: one scenario per
// (app, ranks) configuration with its own ΔL ceiling, the emulator attached
// as the campaign probe, graphs built once per configuration and scenarios
// evaluated in parallel.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_support.hpp"
#include "core/analyzer.hpp"
#include "core/campaign.hpp"
#include "injector/cluster_emulator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace llamp;
  // The uniform stochastic seed flag (same spelling as `llamp mc`):
  // identical seeds reproduce identical validation bytes, different seeds
  // re-roll the emulator's noise.
  const Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      cli.get_int("seed",
                  static_cast<long long>(injector::ClusterEmulator::Config{}.seed)));

  Table summary({"app", "ranks", "o [us]", "events", "RMSE [ms]",
                 "RRMSE [%]", "1% tol", "2% tol", "5% tol"});

  std::filesystem::create_directories("results");

  // The paper observes a small systematic bias for MILC at 32/64 nodes from
  // persistent-operation overheads; model it for those configurations.
  const auto bias_for = [](const core::Scenario& s) {
    return (s.app == "milc" && s.ranks >= 32) ? 0.004 : 0.0;
  };

  std::vector<core::Scenario> scenarios;
  auto add_config = [&](const bench::AppScale& cfg) {
    core::Scenario s;
    s.app = cfg.app;
    s.ranks = cfg.ranks;
    s.scale = cfg.scale;
    s.config = "cscs";
    s.params = bench::params_for(cfg.app, cfg.ranks);
    s.delta_Ls = core::linear_grid(us(cfg.dl_max_us), 11);
    s.band_percents = {1.0, 2.0, 5.0};
    scenarios.push_back(std::move(s));
  };
  for (const auto& cfg : bench::fig9_configs()) add_config(cfg);
  for (const auto& cfg : bench::table2_extra_configs()) add_config(cfg);

  const core::Campaign::Probe probe = [&](const core::Scenario& s,
                                          const graph::Graph& g) {
    injector::ClusterEmulator::Config emu_cfg;
    emu_cfg.systematic_bias = bias_for(s);
    emu_cfg.seed = seed;
    injector::ClusterEmulator emulator(g, s.params, emu_cfg);
    return emulator.sweep(s.delta_Ls, 5);
  };

  core::Campaign campaign(std::move(scenarios));
  const auto results = campaign.run(probe);

  for (const auto& res : results) {
    const core::Scenario& sc = res.scenario;
    std::printf("--- %s %d ranks (ΔL 0..%g us) ---\n", sc.app.c_str(),
                sc.ranks, to_us(sc.delta_Ls.back()));
    Table curve({"ΔL", "measured", "predicted", "lambda_L", "rho_L"});
    Table csv({"delta_l_ns", "measured_ns", "predicted_ns", "lambda_l",
               "rho_l"});
    std::vector<double> measured, predicted;
    for (const auto& pt : res.points) {
      measured.push_back(pt.probe);
      predicted.push_back(pt.runtime);
      curve.add_row({human_time_ns(pt.delta_L), human_time_ns(pt.probe),
                     human_time_ns(pt.runtime),
                     strformat("%.0f", pt.lambda),
                     strformat("%.1f%%", 100.0 * pt.rho)});
      csv.add_row({strformat("%.1f", pt.delta_L), strformat("%.1f", pt.probe),
                   strformat("%.1f", pt.runtime),
                   strformat("%.0f", pt.lambda),
                   strformat("%.6f", pt.rho)});
    }
    std::printf("%s", curve.to_string().c_str());
    std::ofstream(strformat("results/fig9_%s_%d.csv", sc.app.c_str(),
                            sc.ranks))
        << csv.to_csv();
    const double rmse_v = rmse(measured, predicted);
    const double rrmse_v = rrmse_percent(measured, predicted);
    std::printf("RRMSE %.2f%%%s\n\n", rrmse_v,
                bias_for(sc) != 0.0
                    ? " (with the MILC-style systematic bias)" : "");
    summary.add_row({sc.app, strformat("%d", sc.ranks),
                     strformat("%.1f", to_us(sc.params.o)),
                     human_count(static_cast<double>(res.graph_vertices)),
                     strformat("%.3f", to_ms(rmse_v)),
                     strformat("%.2f", rrmse_v),
                     human_time_ns(res.bands[0].tolerance_delta),
                     human_time_ns(res.bands[1].tolerance_delta),
                     human_time_ns(res.bands[2].tolerance_delta)});
  }

  std::printf("=== Table II analogue (validation summary) ===\n%s\n",
              summary.to_string().c_str());
  std::ofstream("results/table2_summary.csv") << summary.to_csv();
  std::printf("(CSV series written to results/fig9_*.csv and "
              "results/table2_summary.csv)\n\n");

  // Noise ablation: how does RRMSE respond to the emulator's noise level?
  // (A sweep over the *emulator's* σ, not a campaign axis: the forecast side
  // is one scenario evaluated once.)
  std::printf("=== Noise ablation (LULESH, 27 ranks) ===\n");
  const bench::AppScale cfg{"lulesh", 27, 0.25, 100.0};
  const auto g = bench::app_graph(cfg);
  const auto params = bench::params_for(cfg.app, cfg.ranks);
  core::LatencyAnalyzer an(g, params);
  Table noise_table({"noise sigma", "RRMSE [%]"});
  for (const double sigma : {0.0, 0.001, 0.003, 0.005, 0.01, 0.02}) {
    injector::ClusterEmulator::Config emu_cfg;
    emu_cfg.noise_sigma = sigma;
    emu_cfg.seed = seed;
    injector::ClusterEmulator emulator(g, params, emu_cfg);
    std::vector<double> measured, predicted;
    for (int i = 0; i < 6; ++i) {
      const double d = us(cfg.dl_max_us) * i / 5;
      measured.push_back(emulator.measure(d, 5));
      predicted.push_back(an.predict_runtime(d));
    }
    noise_table.add_row({strformat("%.3f", sigma),
                         strformat("%.2f", rrmse_percent(measured, predicted))});
  }
  std::printf("%s", noise_table.to_string().c_str());
  return 0;
}
