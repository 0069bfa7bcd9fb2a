// Throughput harness for the stoch/ Monte Carlo engine: samples/sec on a
// representative grid (the same hpcg-64 configuration BENCH_solver.json
// pins), for the two engine paths —
//
//   * fast path: only L varies, one shared lowering, lane groups of
//     lp::kBatchWidth samples per forward pass;
//   * general path: o jitter + per-edge noise, one perturbed lowering per
//     sample, chunk-claimed scheduling;
//
// each single-threaded and at hardware concurrency.  Writes the
// perf-trajectory file BENCH_mc.json (numbers are informational in CI,
// never gating).  Every section records the thread counts it actually ran
// with, and parallel_speedup is null on 1-core hosts — a ~1.0 there would
// read as "parallelism doesn't help" when it was never exercised.  (The
// committed BENCH_mc.json predates schema 3: its scalar fast-path section
// and batch_speedup_threads1 record a per-sample mode that no longer
// exists.)
//
//   $ ./bench_mc [--samples=256] [--quick] [--out=BENCH_mc.json]

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "stoch/mc.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

double run_ms(const llamp::graph::Graph& g, const llamp::loggops::Params& p,
              llamp::stoch::McSpec spec, int threads) {
  spec.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = llamp::stoch::run_mc(g, p, spec);
  const auto t1 = std::chrono::steady_clock::now();
  if (res.runtime.empty() || res.runtime[0].count() == 0) {
    std::fprintf(stderr, "bench_mc: empty result\n");
    std::exit(1);
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Section {
  double ms1 = 0.0;  ///< single-threaded wall time
  double msn = 0.0;  ///< wall time at hardware concurrency
};

}  // namespace

int main(int argc, char** argv) {
  using namespace llamp;
  const Cli cli(argc, argv);
  const int samples =
      static_cast<int>(cli.get_int("samples", cli.get_bool("quick", false)
                                                  ? 32
                                                  : 256));
  const std::string out_path = cli.get("out", "BENCH_mc.json");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  const std::string app = "hpcg";
  const int ranks = 64;
  const double scale = 0.05;
  const auto g = schedgen::build_graph(apps::make_app_trace(app, ranks, scale));
  loggops::Params p = loggops::NetworkConfig::cscs_testbed();

  stoch::McSpec fast;
  fast.samples = samples;
  fast.L = stoch::Distribution::rel_normal(0.05);
  fast.delta_Ls = core::linear_grid(us(100.0), 11);
  fast.band_percents = {1.0, 2.0, 5.0};

  stoch::McSpec general = fast;
  general.o = stoch::Distribution::rel_normal(0.02);
  general.noise = {0.003, 0.0};

  std::printf("bench_mc: %s ranks=%d scale=%g  %zu vertices / %zu edges, "
              "%d samples x 11 ΔL points + 3 bands, hw=%d threads, "
              "batch width %zu\n",
              app.c_str(), ranks, scale, g.num_vertices(), g.num_edges(),
              samples, hw, lp::kBatchWidth);

  const Section fast_b{run_ms(g, p, fast, 1), run_ms(g, p, fast, 0)};
  const Section gen{run_ms(g, p, general, 1), run_ms(g, p, general, 0)};

  const auto rate = [&](double ms) { return 1e3 * samples / ms; };
  const auto print_section = [&](const char* name, const Section& s) {
    std::printf("%s 1 thread %8.1f ms (%6.1f samples/s)   %d threads "
                "%8.1f ms (%6.1f samples/s)\n",
                name, s.ms1, rate(s.ms1), hw, s.msn, rate(s.msn));
  };
  print_section("fast path, batched (L-only):       ", fast_b);
  print_section("general path (o + edge noise):     ", gen);

  // Parallel speedup is only a statement about parallelism when there was
  // any: on a 1-core host the ratio is ~1.0 by construction, so emit null.
  const auto speedup = [&](const Section& s) -> std::string {
    if (hw <= 1) return "null";
    return strformat("%.2f", s.ms1 / s.msn);
  };
  const auto section_json = [&](const char* desc, const Section& s,
                                bool batched) {
    return strformat(
        "    \"description\": \"%s\",\n"
        "    \"hardware_threads\": %d,\n"
        "    \"batched\": %s, \"batch_width\": %zu,\n"
        "    \"threads1_ms\": %.3f, \"threads1_samples_per_sec\": %.1f,\n"
        "    \"threadsN_ms\": %.3f, \"threadsN_samples_per_sec\": %.1f\n",
        desc, hw, batched ? "true" : "false",
        batched ? lp::kBatchWidth : std::size_t{1}, s.ms1, rate(s.ms1),
        s.msn, rate(s.msn));
  };

  std::ofstream os(out_path);
  os << strformat(
      "{\n"
      "  \"benchmark\": \"mc\",\n"
      "  \"schema_version\": 3,\n"
      "  \"config\": {\n"
      "    \"app\": \"%s\", \"ranks\": %d, \"scale\": %g,\n"
      "    \"graph_vertices\": %zu, \"graph_edges\": %zu,\n"
      "    \"samples\": %d, \"delta_l_points\": 11, \"bands\": 3,\n"
      "    \"hardware_threads\": %d, \"batch_width\": %zu\n"
      "  },\n"
      "  \"fast_path_L_only_batched\": {\n%s  },\n"
      "  \"general_path_edge_noise\": {\n%s  },\n"
      "  \"parallel_speedup\": {\"fast_batched\": %s, \"general\": %s}\n"
      "}\n",
      app.c_str(), ranks, scale, g.num_vertices(), g.num_edges(), samples,
      hw, lp::kBatchWidth,
      section_json("shared solver, lane groups of batch_width samples per "
                   "forward pass; only the sampled L moves",
                   fast_b, /*batched=*/true)
          .c_str(),
      section_json("per-sample perturbed-space lowering (o jitter + "
                   "per-edge folded-normal noise), chunk-claimed scheduling",
                   gen, /*batched=*/false)
          .c_str(),
      speedup(fast_b).c_str(), speedup(gen).c_str());
  if (!os) {
    std::fprintf(stderr, "bench_mc: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
