// Quickstart: the complete LLAMP pipeline on the paper's running example
// (Fig. 4): record a trace through the virtual-MPI builder, convert it to an
// execution graph with Schedgen, and read runtime forecasts, latency
// sensitivity λ_L, critical latencies, and latency tolerance off the LP.
//
//   $ ./quickstart
//
// Expected landmarks (paper §II): L_c = 0.385 us, T(0.5 us) = 1.615 us,
// tolerance for a 2 us budget = 0.885 us.

#include <cstdio>

#include "core/analyzer.hpp"
#include "schedgen/schedgen.hpp"
#include "trace/builder.hpp"
#include "util/strings.hpp"

int main() {
  using namespace llamp;

  // 1. Record a two-rank MPI program: rank 0 computes 0.1 us and sends 4
  //    bytes; rank 1 computes 0.5 us, receives, and computes 1 us more.
  //    (The builder plays the role of liballprof.)
  trace::TraceBuilder tb(/*nranks=*/2, /*op_duration=*/0.0);
  tb.compute(0, 100.0);
  tb.send(0, /*peer=*/1, /*bytes=*/4);
  tb.compute(0, 1'000.0);
  tb.compute(1, 500.0);
  tb.recv(1, /*peer=*/0, /*bytes=*/4);
  tb.compute(1, 1'000.0);
  const trace::Trace trace = tb.finish();

  // 2. Schedgen: trace -> execution graph.
  const graph::Graph graph = schedgen::build_graph(trace);
  std::printf("execution graph: %s\n", graph.stats_string().c_str());

  // 3. Analyze under a LogGPS configuration (o = 0, G = 5 ns/B, base L = 0
  //    to match the paper's example).
  loggops::Params params;
  params.L = 0.0;
  params.o = 0.0;
  params.G = 5.0;
  core::LatencyAnalyzer analyzer(graph, params);

  std::printf("\nruntime forecast:\n");
  for (const double L : {0.0, 200.0, 385.0, 500.0, 800.0}) {
    std::printf("  T(L=%7s) = %s   lambda_L = %.0f\n",
                human_time_ns(L).c_str(),
                human_time_ns(analyzer.predict_runtime(L)).c_str(),
                analyzer.lambda_L(L));
  }

  const auto crit = analyzer.solver().critical_values(0, 0.0, 1'000.0);
  std::printf("\ncritical latencies in [0, 1 us]:");
  for (const double c : crit) std::printf(" %s", human_time_ns(c).c_str());
  std::printf("   (paper: 385 ns)\n");

  // 4. Latency tolerance: max L keeping runtime within a 2 us budget
  //    (= +33.3%% over the 1.5 us base runtime).
  const double tol = analyzer.tolerance(100.0 / 3.0);
  std::printf("tolerance for 2 us budget: %s   (paper: 885 ns)\n",
              human_time_ns(tol).c_str());

  // 5. The same questions at the usual 1/2/5%% thresholds.
  std::printf("\nx%% latency tolerance:\n");
  for (const double pct : {1.0, 2.0, 5.0}) {
    std::printf("  %.0f%%: L <= %s\n", pct,
                human_time_ns(analyzer.tolerance(pct)).c_str());
  }
  return 0;
}
