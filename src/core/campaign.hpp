#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/graph_cache.hpp"
#include "core/solver_cache.hpp"
#include "graph/graph.hpp"
#include "loggops/params.hpp"
#include "stoch/distribution.hpp"
#include "topo/topology.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace llamp::core {

/// Multi-scenario batch analysis: the paper's results are whole grids —
/// every figure sweeps applications × rank counts × latency injections ×
/// topologies (Figs. 1, 9–12, 20) — and this subsystem is the single engine
/// behind them.  A declarative grid spec expands into scenarios; each
/// scenario builds (or reuses) one execution graph and one lp::LoweredProblem
/// and walks its ΔL grid; scenarios run in parallel; results
/// come back in grid order regardless of thread count.

/// One fully-resolved analysis scenario: a proxy application at a scale,
/// under a LogGPS configuration, optionally mapped onto a physical topology,
/// with its own ΔL grid.
///
/// Topology semantics: with topology "none" the decision parameter is the
/// flat network latency L and ΔL injects on L (the Fig. 1/9 axis).  With
/// "fat-tree" or "dragonfly" every wire's latency is the decision parameter
/// (the §IV-2 wire-latency space) and ΔL injects on l_wire, so points
/// answer "what if each link got ΔL slower" (the FEC question of Fig. 11).
struct Scenario {
  std::string app;
  int ranks = 0;
  double scale = 0.25;
  std::string topology = "none";  ///< "none" | "fat-tree" | "dragonfly"
  std::string config;             ///< label of the LogGPS variant
  loggops::Params params;
  std::vector<TimeNs> delta_Ls;        ///< injection grid, all >= 0
  std::vector<double> band_percents;   ///< tolerance bands to evaluate
};

/// Physical-topology shape shared by every topology scenario of a campaign
/// (the same knobs `llamp topo` exposes).
struct TopologyOptions {
  double l_wire = 274.0;    ///< per-wire base latency [ns] (Zambre et al.)
  double d_switch = 108.0;  ///< per-switch traversal [ns]
  int ft_radix = 8;
  int df_groups = 8;
  int df_routers = 4;
  int df_hosts = 8;
};

/// One LogGPS variant (resolve_variant).  When `o_is_default`, resolve_cell
/// replaces the preset's per-message overhead per application with the
/// paper's Table II measurement; an explicit o override pins it across all
/// applications.
struct ConfigVariant {
  std::string name;  ///< e.g. "cscs" or "cscs/L=10000"
  loggops::Params params;
  bool o_is_default = true;
};

/// Monte Carlo axis of a campaign (the stoch/ subsystem riding the grid):
/// with samples > 0 every scenario is additionally analyzed under `samples`
/// perturbed LogGPS operating points — relative normal jitter on L/o/G plus
/// per-edge cost noise in the cluster emulator's convention — and each grid
/// point gains distributional runtime summaries next to its deterministic
/// value.  Only flat-latency scenarios (topology "none") support the axis;
/// mixing it with a physical topology is a usage error.
///
/// Every scenario samples from the same seed (common random numbers): the
/// across-scenario *differences* the grid exists to expose are not blurred
/// by independent noise draws, and results stay independent of the thread
/// count and of which scenarios share the campaign.
struct McAxis {
  int samples = 0;  ///< 0 = deterministic campaign only
  std::uint64_t seed = 42;
  double sigma_L = 0.0;  ///< relative stddev of L around each scenario base
  double sigma_o = 0.0;
  double sigma_G = 0.0;
  stoch::EdgeNoise noise;
};

/// Declarative grid spec.  Expansion order (and therefore result order) is
/// the nested cross product with `apps` outermost and the ΔL grid innermost:
///   apps × ranks × scales × topologies × configs × ΔL.
/// Requested rank counts are clamped per application to the nearest
/// supported value (LULESH wants cubes); clamp collisions are deduplicated
/// keeping first occurrence, so a grid never analyzes one scenario twice.
struct CampaignSpec {
  std::vector<std::string> apps;
  std::vector<int> ranks = {8};
  std::vector<double> scales = {0.25};
  std::vector<std::string> topologies = {"none"};
  std::vector<ConfigVariant> configs;  ///< empty = one CSCS-testbed variant
  std::vector<TimeNs> delta_Ls = {0.0};
  std::vector<double> band_percents;
  TopologyOptions topo;
  McAxis mc;
  int threads = 0;  ///< scenario parallelism; <= 0 = hardware concurrency
};

/// Table II per-application overhead keyed the way the validation benches
/// key it (node count approximated by rank count); leaves `p.o` unchanged
/// for applications outside Table II (npb-*, namd).
void apply_table2_overhead(loggops::Params& p, const std::string& app,
                           int ranks);

/// The uniform ΔL grid {0, ..., dl_max} with `points` entries — the one
/// grid-construction expression shared by the CLI and the bench harnesses,
/// so their bytes can never drift apart.  Throws UsageError unless
/// points >= 2 and dl_max > 0.
std::vector<TimeNs> linear_grid(TimeNs dl_max, int points);

// Scenario resolution: the one path from requested knobs to a concrete
// scenario.  A single-scenario op (api::Engine's analyze, sweep, mc, topo,
// place) resolves one variant and one cell; a campaign resolves one cell
// per grid point.  Every check throws UsageError, so a bad knob is a usage
// error on every op and surface.  An unknown application is not caught
// here: it surfaces as an analysis Error when its trace is generated.

/// Network preset `net` (cscs or daint) with the given LogGPS
/// overrides applied, named `net`.  An explicit `o` pins the overhead
/// (o_is_default = false).  Throws UsageError for an unknown preset or
/// S < 1.
ConfigVariant resolve_variant(const std::string& net, std::optional<double> L,
                              std::optional<double> o, std::optional<double> G,
                              std::optional<std::uint64_t> S);

/// One scenario of `variant` (topology "none", empty ΔL grid): `ranks`
/// clamped to the application's supported count, Table II's o applied
/// when `variant.o_is_default`, and the params validated.  Throws
/// UsageError for ranks < 1, a non-finite or non-positive scale, or
/// invalid params.
Scenario resolve_cell(const std::string& app, int ranks, double scale,
                      const ConfigVariant& variant);

/// Topology `name` built from `topo`'s shape knobs and checked to hold
/// `ranks` ranks, one per node; "none" (the flat-latency scenario) gives
/// nullptr.  Throws UsageError for a negative or non-finite `l_wire` or
/// `d_switch` (whatever the name), an unknown name, a malformed shape or a
/// too-small network.
std::unique_ptr<topo::Topology> fit_topology(const std::string& name,
                                             const TopologyOptions& topo,
                                             int ranks);

/// The §IV-2 wire-latency problem of `g` on `t` under identity placement:
/// every wire's latency is the decision parameter (base `topo.l_wire`) and
/// every switch adds `topo.d_switch`.
std::unique_ptr<lp::LoweredProblem> lower_wire_latency(
    const graph::Graph& g, const loggops::Params& p, const topo::Topology& t,
    const TopologyOptions& topo);

class Campaign {
 public:
  /// Expand a grid spec.  Throws UsageError on degenerate axes (empty app
  /// list, negative ΔL, unknown topology name, non-positive scale).
  explicit Campaign(const CampaignSpec& spec);

  /// Adopt an explicit scenario list (the bench harnesses' path: Fig. 9's
  /// configurations are not a cross product — per-app rank sets and ΔL
  /// ceilings).  Scenarios are validated like expanded ones.
  Campaign(std::vector<Scenario> scenarios, TopologyOptions topo = {},
           int threads = 0, McAxis mc = {});

  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  struct Point {
    TimeNs delta_L = 0.0;
    TimeNs runtime = 0.0;
    double lambda = 0.0;  ///< ∂T/∂(active parameter): λ_L or dT/dl_wire
    double rho = 0.0;     ///< latency fraction of the critical path
    double probe = 0.0;   ///< extra metric; meaningful only with a probe
  };
  struct Band {
    double percent = 0.0;
    TimeNs tolerance_delta = 0.0;  ///< +inf when the parameter never binds
  };
  /// Distributional runtime summary of one grid point under the mc axis.
  struct McPoint {
    TimeNs mean = 0.0;
    TimeNs stddev = 0.0;
    TimeNs q05 = 0.0;
    TimeNs q95 = 0.0;
  };
  struct ScenarioResult {
    Scenario scenario;
    TimeNs base_runtime = 0.0;  ///< T at ΔL = 0
    std::size_t graph_vertices = 0;
    std::size_t graph_edges = 0;
    std::vector<Point> points;  ///< aligned with scenario.delta_Ls
    std::vector<Band> bands;    ///< aligned with scenario.band_percents
    std::vector<McPoint> mc;    ///< aligned with points; empty when mc off
  };

  /// Optional extra per-point metric (e.g. a cluster-emulator measurement):
  /// called once per scenario with the cached graph, must return one value
  /// per ΔL point, in grid order.  Called concurrently across scenarios, so
  /// it must not share mutable state between calls.
  using Probe =
      std::function<std::vector<double>(const Scenario&, const graph::Graph&)>;

  /// Run every scenario.  Execution graphs are cached by
  /// (app, ranks, scale, rendezvous threshold) and shared across the
  /// topology/config axes and all ΔL points — a graph is never rebuilt per
  /// point.  Results are written by scenario index, so their order (and,
  /// via the deterministic solver, their bytes) is independent of the
  /// thread count.  Graphs and lowerings live exactly as long as the run.
  std::vector<ScenarioResult> run(const Probe& probe = {});

  /// Same, resolving graphs and flat-latency scenario solvers through
  /// external caches (the api::Engine session pair): graphs and lowered
  /// problems persist across campaigns and are shared with analyze/sweep/mc
  /// requests of the same scenarios, missing graphs are built in parallel,
  /// and repeated grid points replay from cached anchor state instead of
  /// re-solving.  The emitted bytes are independent of either cache's prior
  /// contents (replay from a covering anchor is bitwise-equal to a dense
  /// solve).  Topology scenarios keep their per-scenario wire-latency
  /// lowerings — those spaces are not cacheable by a LogGPS key.
  std::vector<ScenarioResult> run(const Probe& probe, GraphCache& cache,
                                  SolverCache& solvers);

  struct RunStats {
    /// Distinct execution graphs the grid spans (= graphs constructed when
    /// starting from a cold cache).  A spec property, deliberately not the
    /// physical build count: a warmed session cache must not change the
    /// campaign header's bytes.
    std::size_t graphs_built = 0;
    std::size_t scenarios_run = 0;
  };
  /// Statistics of the most recent run() (cache effectiveness pinning).
  const RunStats& stats() const { return stats_; }

 private:
  std::vector<Scenario> scenarios_;
  TopologyOptions topo_;
  McAxis mc_;
  int threads_ = 0;
  RunStats stats_;
};

/// The flattened points grid of a campaign as a table, shared by the CLI
/// emitters and harnesses.  `human` selects report formatting (adaptive
/// units, slowdown vs the scenario's base runtime); otherwise the numeric
/// CSV/JSON schema (app, ranks, scale, topology, config, delta_l_ns,
/// runtime_ns, lambda_l, rho_l).  A non-empty `probe_name` appends the
/// probe column.
Table campaign_points_table(const std::vector<Campaign::ScenarioResult>& results,
                            bool human, const std::string& probe_name = "");

}  // namespace llamp::core
