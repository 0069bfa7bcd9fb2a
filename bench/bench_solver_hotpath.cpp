#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "graph/costs.hpp"
#include "graph/graph.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"

// Hot-path benchmark for the parametric solver, and the writer of the
// repository's perf trajectory file BENCH_solver.json.
//
// "before" is a faithful copy of the PR-2-era solver hot path (per-edge
// heap-allocated Affine term vectors, four scratch vectors allocated per
// solve, one dense forward pass per sweep point), kept here so the baseline
// stays measurable forever.  "after" is the production LoweredProblem:
// flat SoA edge costs, caller-owned workspace, segment-walk sweeps.
//
//   bench/run_bench.sh [--quick]    # builds, runs, writes BENCH_solver.json

namespace llamp {
namespace {

constexpr const char* kApp = "hpcg";
constexpr int kRanks = 64;
constexpr double kScale = 0.05;
constexpr int kSweepPoints = 200;
constexpr double kSweepMaxNs = 100'000.0;  // 100 us of ΔL

// ---------------------------------------------------------------------------
// Legacy (seed) solver: the exact hot path this PR replaced.
// ---------------------------------------------------------------------------
class LegacySolver {
 public:
  LegacySolver(const graph::Graph& g,
               std::shared_ptr<const lp::ParamSpace> space)
      : g_(g), space_(std::move(space)) {
    const auto edges = g_.edges();
    edge_affine_.reserve(edges.size());
    for (const graph::Edge& e : edges) {
      edge_affine_.push_back(space_->edge_cost(g_, e));
    }
    vertex_cost_.reserve(g_.num_vertices());
    const loggops::Params& p = space_->params();
    for (graph::VertexId v = 0; v < g_.num_vertices(); ++v) {
      vertex_cost_.push_back(graph::vertex_cost(g_.vertex(v), p));
    }
    for (int k = 0; k < space_->num_params(); ++k) {
      base_.push_back(space_->base_value(k));
    }
  }

  double solve(int active, double value) const {
    static constexpr double kInfD = std::numeric_limits<double>::infinity();
    static constexpr std::uint32_t kNoEdge =
        std::numeric_limits<std::uint32_t>::max();
    const auto eps = [](double v) { return 1e-9 * (1.0 + std::fabs(v)); };

    std::vector<double> point = base_;
    point[static_cast<std::size_t>(active)] = value;
    const std::size_t n = g_.num_vertices();
    std::vector<double> finish(n, 0.0);
    std::vector<double> slope(n, 0.0);
    std::vector<std::uint32_t> arg_edge(n, kNoEdge);

    const auto edge_at = [&](std::uint32_t e) {
      double c = edge_affine_[e].constant;
      double s = 0.0;
      for (const lp::ParamTerm& t : edge_affine_[e].terms) {
        c += t.coeff * point[static_cast<std::size_t>(t.param)];
        if (t.param == active) s += t.coeff;
      }
      return std::pair(c, s);
    };

    std::vector<std::pair<double, double>> cands;
    const auto topo = g_.topo_order();
    const graph::Graph::TopoSlots& ts = g_.topo_slots();
    for (std::size_t i = 0; i < topo.size(); ++i) {
      const graph::VertexId v = topo[i];
      if (ts.offsets[i] == ts.offsets[i + 1]) {
        finish[v] = vertex_cost_[v];
        continue;
      }
      cands.clear();
      double best_val = -kInfD;
      double best_slope = 0.0;
      std::uint32_t best_edge = kNoEdge;
      for (std::uint32_t j = ts.offsets[i]; j < ts.offsets[i + 1]; ++j) {
        const std::uint32_t e = ts.edge[j];
        const graph::VertexId u = topo[ts.pred[j]];
        const auto [c, s] = edge_at(e);
        const double cv = finish[u] + c;
        const double cs = slope[u] + s;
        cands.emplace_back(cv, cs);
        if (best_edge == kNoEdge || cv > best_val + eps(best_val) ||
            (cv > best_val - eps(best_val) && cs > best_slope)) {
          best_val = cv;
          best_slope = cs;
          best_edge = e;
        }
      }
      finish[v] = best_val + vertex_cost_[v];
      slope[v] = best_slope;
      arg_edge[v] = best_edge;
    }
    double best = -kInfD;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (g_.out_edges(v).empty()) best = std::max(best, finish[v]);
    }
    return best;
  }

 private:
  const graph::Graph& g_;
  std::shared_ptr<const lp::ParamSpace> space_;
  std::vector<lp::Affine> edge_affine_;
  std::vector<double> vertex_cost_;
  std::vector<double> base_;
};

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------
struct Fixture {
  graph::Graph graph;
  loggops::Params params;
  std::shared_ptr<const lp::LatencyParamSpace> space;
  lp::LoweredProblem solver;
  LegacySolver legacy;
  std::vector<double> xs;  // absolute L values of the ΔL sweep grid

  Fixture()
      : graph(schedgen::build_graph(apps::make_app_trace(kApp, kRanks, kScale))),
        params(loggops::NetworkConfig::cscs_testbed()),
        space(std::make_shared<lp::LatencyParamSpace>(params)),
        solver(graph, space),
        legacy(graph, space) {
    for (int i = 0; i < kSweepPoints; ++i) {
      xs.push_back(params.L + kSweepMaxNs * i / (kSweepPoints - 1));
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_LegacySolve(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.legacy.solve(0, f.params.L));
  }
}
BENCHMARK(BM_LegacySolve);

void BM_WorkspaceSolve(benchmark::State& state) {
  auto& f = fixture();
  lp::LoweredProblem::Cursor ws;
  (void)f.solver.solve(0, f.params.L, ws);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.solver.solve(0, f.params.L, ws).value);
  }
}
BENCHMARK(BM_WorkspaceSolve);

void BM_LegacyDenseSweep200(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    double acc = 0.0;
    for (const double x : f.xs) acc += f.legacy.solve(0, x);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_LegacyDenseSweep200);

void BM_SegmentWalkSweep200(benchmark::State& state) {
  auto& f = fixture();
  lp::LoweredProblem::Cursor ws;
  std::vector<lp::LoweredProblem::SweepEval> out(f.xs.size());
  for (auto _ : state) {
    f.solver.sweep(0, f.xs, ws, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SegmentWalkSweep200);

// ---------------------------------------------------------------------------
// Reporting: capture per-benchmark ns/iteration, then write the trajectory
// file alongside the usual console output.
// ---------------------------------------------------------------------------
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Portable across google-benchmark 1.7 (error_occurred) and 1.8+
      // (skipped): plain iteration runs are all this harness produces.
      if (run.run_type != Run::RT_Iteration) continue;
      ns_per_iter_[run.benchmark_name()] =
          1e9 * run.real_accumulated_time /
          static_cast<double>(std::max<std::int64_t>(run.iterations, 1));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  double ns(const std::string& name) const {
    const auto it = ns_per_iter_.find(name);
    return it == ns_per_iter_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> ns_per_iter_;
};

long peak_rss_kb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

int write_trajectory(const CaptureReporter& rep, const std::string& path) {
  auto& f = fixture();
  const double before_solve = rep.ns("BM_LegacySolve");
  const double after_solve = rep.ns("BM_WorkspaceSolve");
  const double before_sweep = rep.ns("BM_LegacyDenseSweep200");
  const double after_sweep = rep.ns("BM_SegmentWalkSweep200");
  // Work the walk actually performs: full passes at basis anchors (near-tie
  // micro-pieces included) and critical-path replays for interior points.
  lp::LoweredProblem::Cursor ws;
  std::vector<lp::LoweredProblem::SweepEval> evals(f.xs.size());
  lp::LoweredProblem::SweepStats stats;
  f.solver.sweep(0, f.xs, ws, evals.data(), &stats);
  // Distinct λ pieces of T on the range (the merged, paper-level view).
  const std::size_t segments =
      f.solver.piecewise(0, f.xs.front(), f.xs.back()).size();

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"solver_hotpath\",\n"
               "  \"schema_version\": 2,\n"
               "  \"config\": {\n"
               "    \"app\": \"%s\", \"ranks\": %d, \"scale\": %g,\n"
               "    \"graph_vertices\": %zu, \"graph_edges\": %zu,\n"
               "    \"sweep_points\": %d, \"sweep_dl_max_us\": %g,\n"
               "    \"segments_in_sweep_range\": %zu,\n"
               "    \"hardware_threads\": %u\n"
               "  },\n"
               "  \"before\": {\n"
               "    \"description\": \"seed hot path: per-edge heap term "
               "vectors, scratch allocated per solve, dense per-point "
               "sweep\",\n"
               "    \"ns_per_solve\": %.1f,\n"
               "    \"sweep_ms\": %.3f,\n"
               "    \"solves_per_sweep\": %d\n"
               "  },\n"
               "  \"after\": {\n"
               "    \"description\": \"flat SoA edge costs + caller-owned "
               "workspace (zero allocations per steady-state solve) + "
               "segment-walk sweep\",\n"
               "    \"ns_per_solve\": %.1f,\n"
               "    \"sweep_ms\": %.3f,\n"
               "    \"solves_per_sweep\": %zu,\n"
               "    \"replays_per_sweep\": %zu\n"
               "  },\n"
               "  \"speedup\": {\n"
               "    \"single_solve\": %.2f,\n"
               "    \"sweep_200pt\": %.2f\n"
               "  },\n"
               "  \"peak_rss_kb\": %ld\n"
               "}\n",
               kApp, kRanks, kScale, f.graph.num_vertices(),
               f.graph.num_edges(), kSweepPoints, kSweepMaxNs / 1'000.0,
               segments, std::thread::hardware_concurrency(), before_solve,
               before_sweep / 1e6, kSweepPoints,
               after_solve, after_sweep / 1e6, stats.anchor_solves,
               stats.replays,
               after_solve > 0.0 ? before_solve / after_solve : 0.0,
               after_sweep > 0.0 ? before_sweep / after_sweep : 0.0,
               peak_rss_kb());
  std::fclose(out);
  std::fprintf(stderr, "perf trajectory written to %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace llamp

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      args.push_back(argv[i]);
    }
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  llamp::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!out_path.empty()) return llamp::write_trajectory(reporter, out_path);
  return 0;
}
