#include "core/campaign.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "apps/registry.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "stoch/mc.hpp"
#include "topo/spaces.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace llamp::core {
namespace {

bool known_topology(const std::string& name) {
  return name == "none" || name == "fat-tree" || name == "dragonfly";
}

void validate_scenario(const Scenario& s) {
  if (s.app.empty()) throw UsageError("campaign: scenario with empty app");
  if (s.ranks < 1) {
    throw UsageError(strformat("campaign: need ranks >= 1 (got %d)", s.ranks));
  }
  if (!(s.scale > 0.0) || !std::isfinite(s.scale)) {
    throw UsageError(
        strformat("campaign: need finite scale > 0 (got %g)", s.scale));
  }
  if (!known_topology(s.topology)) {
    throw UsageError("campaign: unknown topology '" + s.topology +
                     "' (want none, fat-tree, or dragonfly)");
  }
  if (s.delta_Ls.empty()) throw UsageError("campaign: empty ΔL grid");
  for (const TimeNs d : s.delta_Ls) {
    if (!(d >= 0.0) || !std::isfinite(d)) {
      throw UsageError(
          strformat("campaign: ΔL grid values must be finite and >= 0 "
                    "(got %g)", d));
    }
  }
  for (const double pct : s.band_percents) {
    if (!(pct >= 0.0)) {
      throw UsageError(
          strformat("campaign: tolerance band percent must be >= 0 (got %g)",
                    pct));
    }
  }
  // The LogGPS values are part of the user-supplied grid spec, so a bad
  // variant (negative L from --L-list, ...) is a usage error like every
  // other degenerate axis, not an analysis failure.
  try {
    s.params.validate();
  } catch (const Error& e) {
    throw UsageError(strformat("campaign: config '%s' invalid: %s",
                               s.config.c_str(), e.what()));
  }
}

/// First-occurrence-preserving dedup for a grid axis: the engine's contract
/// is that a grid never analyzes one scenario twice, whatever the user
/// typed (--apps=lulesh,lulesh, repeated scales, rank-clamp collisions).
template <typename T>
std::vector<T> dedup(const std::vector<T>& values) {
  std::vector<T> out;
  for (const T& v : values) {
    bool seen = false;
    for (const T& prev : out) seen = seen || prev == v;
    if (!seen) out.push_back(v);
  }
  return out;
}

bool same_params(const loggops::Params& a, const loggops::Params& b) {
  return a.L == b.L && a.o == b.o && a.g == b.g && a.G == b.G && a.O == b.O &&
         a.S == b.S;
}

GraphKey graph_key(const Scenario& s) {
  return {s.app, s.ranks, s.scale, s.params.S};
}

std::unique_ptr<topo::Topology> make_topology(const std::string& name,
                                              const TopologyOptions& topo) {
  try {
    if (name == "fat-tree") {
      return std::make_unique<topo::FatTree>(topo.ft_radix);
    }
    return std::make_unique<topo::Dragonfly>(topo.df_groups, topo.df_routers,
                                             topo.df_hosts);
  } catch (const Error& e) {
    throw UsageError(strformat("campaign: bad %s shape: %s", name.c_str(),
                               e.what()));
  }
}

/// Topology shape and fit are part of the user-supplied spec, so a
/// too-small network or an invalid radix is a usage error, raised at
/// construction time — before any graph is built.
void validate_topology(const Scenario& s, const TopologyOptions& topo) {
  if (s.topology == "none") return;
  const auto t = make_topology(s.topology, topo);
  if (t->nnodes() < s.ranks) {
    throw UsageError(strformat("campaign: %s has only %d nodes for %d ranks",
                               t->name().c_str(), t->nnodes(), s.ranks));
  }
}

/// mc-axis hygiene shared by both Campaign constructors: the axis only
/// makes sense with samples >= 0, valid noise knobs, and flat-latency
/// scenarios (the per-sample LogGPS resampling targets L; a wire-latency
/// space has no single L to perturb).
void validate_mc(const McAxis& mc, const std::vector<Scenario>& scenarios) {
  if (mc.samples < 0) {
    throw UsageError(
        strformat("campaign: need mc samples >= 0 (got %d)", mc.samples));
  }
  // Knob well-formedness is checked whatever the sample count: a negative
  // sigma must be a usage error even when the axis is off, never a silent
  // fall-back (the CLI's typo'd-flag stance).
  stoch::Distribution::rel_normal(mc.sigma_L).validate("mc L");
  stoch::Distribution::rel_normal(mc.sigma_o).validate("mc o");
  stoch::Distribution::rel_normal(mc.sigma_G).validate("mc G");
  mc.noise.validate();
  if (mc.samples == 0) {
    // Jitter configured but the axis off is a silent no-op waiting to
    // mislead — reject rather than run a deterministic campaign the user
    // believes is stochastic.
    if (mc.sigma_L != 0.0 || mc.sigma_o != 0.0 || mc.sigma_G != 0.0 ||
        !mc.noise.degenerate()) {
      throw UsageError(
          "campaign: mc jitter configured but mc samples == 0 (set "
          "--mc-samples)");
    }
    return;
  }
  for (const Scenario& s : scenarios) {
    if (s.topology != "none") {
      throw UsageError(
          "campaign: the mc axis requires topology 'none' (got '" +
          s.topology + "')");
    }
  }
}

Campaign::ScenarioResult eval_scenario(const Scenario& s,
                                       const graph::Graph& g,
                                       const TopologyOptions& topo,
                                       const McAxis& mc,
                                       const Campaign::Probe& probe,
                                       SolverCache& solvers,
                                       lp::LoweredProblem::Cursor& cur) {
  Campaign::ScenarioResult res;
  res.scenario = s;
  res.graph_vertices = g.num_vertices();
  res.graph_edges = g.num_edges();

  // Flat-latency scenarios resolve their lowering through the solver
  // cache (shared across campaigns / request types of one session) and
  // serve each grid point through Entry::eval — a replay when a cached
  // anchor covers the point, a recorded dense solve otherwise, bitwise
  // identical either way.  Topology scenarios keep per-scenario lowerings
  // of the shared per-wire latency (not cacheable by LogGPS fingerprint).
  std::shared_ptr<SolverCache::Entry> entry;
  std::optional<lp::LoweredProblem> wire;
  double base = 0.0;
  if (s.topology == "none") {
    entry = solvers.latency(graph_key(s), g, s.params);
    base = s.params.L;
  } else {
    // Shape and fit were already validated by the Campaign constructors.
    const auto t = make_topology(s.topology, topo);
    wire.emplace(g, std::make_shared<lp::LinkClassParamSpace>(
                        topo::make_wire_latency_space(
                            s.params, *t, topo::identity_placement(s.ranks),
                            topo.l_wire, topo.d_switch)));
    base = topo.l_wire;
  }
  res.base_runtime =
      entry ? entry->eval(0, base, cur).value : wire->solve(0, base, cur).value;

  const std::size_t npts = s.delta_Ls.size();
  std::vector<double> xs(npts);
  bool ascending = true;
  for (std::size_t i = 0; i < npts; ++i) {
    xs[i] = base + s.delta_Ls[i];
    if (i > 0 && s.delta_Ls[i - 1] > s.delta_Ls[i]) ascending = false;
  }
  res.points.resize(npts);
  const auto fill = [&](std::size_t i, double value, double lambda) {
    Campaign::Point& pt = res.points[i];
    pt.delta_L = s.delta_Ls[i];
    pt.runtime = value;
    pt.lambda = lambda;
    pt.rho = value > 0.0 ? xs[i] * lambda / value : 0.0;
  };
  if (entry) {
    // Per-point through the cache: repeated campaigns (and repeated grid
    // points across scenarios sharing a graph + config) replay instead of
    // re-solving.  Grid order is irrelevant here.
    for (std::size_t i = 0; i < npts; ++i) {
      const auto ev = entry->eval(0, xs[i], cur);
      fill(i, ev.value, ev.slope);
    }
  } else if (ascending) {
    // Every CLI grid is ascending: one segment walk answers the whole grid
    // in O(#linear pieces) forward passes, bitwise identical to per-point
    // solves.
    std::vector<lp::LoweredProblem::SweepEval> evals(npts);
    wire->sweep(0, xs, cur, evals.data());
    for (std::size_t i = 0; i < npts; ++i) {
      fill(i, evals[i].value, evals[i].slope);
    }
  } else {
    // Explicit scenario lists may order their grids arbitrarily; fall back
    // to dense per-point solves through the same cursor.
    for (std::size_t i = 0; i < npts; ++i) {
      const auto& sol = wire->solve(0, xs[i], cur);
      fill(i, sol.value, sol.gradient[0]);
    }
  }

  // Cached scenarios read their bands through the entry's tolerance memo;
  // the budget expression matches LatencyAnalyzer::tolerance bit for bit,
  // so campaigns and analyze requests share hits.
  res.bands.reserve(s.band_percents.size());
  for (const double pct : s.band_percents) {
    const double budget = res.base_runtime * (1.0 + pct / 100.0);
    const double tol =
        entry ? entry->max_param_for_budget_from(0, base, budget, cur)
              : wire->max_param_for_budget(0, budget, cur);
    res.bands.push_back({pct, std::isfinite(tol) ? tol - base : tol});
  }

  if (mc.samples > 0) {
    // The stochastic companion analysis of this scenario: same graph, same
    // ΔL grid, operating point resampled `samples` times.  Runs
    // single-threaded — the campaign already parallelizes across
    // scenarios — and seeds identically for every scenario (common random
    // numbers; see McAxis).
    stoch::McSpec spec;
    spec.L = stoch::Distribution::rel_normal(mc.sigma_L);
    spec.o = stoch::Distribution::rel_normal(mc.sigma_o);
    spec.G = stoch::Distribution::rel_normal(mc.sigma_G);
    spec.noise = mc.noise;
    spec.samples = mc.samples;
    spec.seed = mc.seed;
    spec.threads = 1;
    spec.delta_Ls = s.delta_Ls;
    spec.band_percents.clear();
    // With all-degenerate jitter off-axes the mc run's shared solver is
    // exactly this scenario's cached lowering; run_mc verifies the match
    // and lowers afresh otherwise.
    const stoch::McResult mres = stoch::run_mc(
        g, s.params, spec, entry ? entry->problem() : nullptr);
    res.mc.reserve(mres.runtime.size());
    for (const stoch::Summary& sum : mres.runtime) {
      res.mc.push_back({sum.mean(), sum.stddev(), sum.q05(), sum.q95()});
    }
  }

  if (probe) {
    const auto values = probe(s, g);
    if (values.size() != res.points.size()) {
      throw Error(strformat(
          "campaign: probe returned %zu values for %zu ΔL points",
          values.size(), res.points.size()));
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      res.points[i].probe = values[i];
    }
  }
  return res;
}

}  // namespace

std::vector<TimeNs> linear_grid(TimeNs dl_max, int points) {
  if (points < 2) {
    throw UsageError(strformat("need --points >= 2 (got %d)", points));
  }
  if (!(dl_max > 0.0) || !std::isfinite(dl_max)) {
    throw UsageError(strformat(
        "need --dl-max-us > 0 (got %g us): a ΔL sweep needs a positive "
        "ceiling", to_us(dl_max)));
  }
  std::vector<TimeNs> grid;
  grid.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    grid.push_back(dl_max * i / (points - 1));
  }
  return grid;
}

void apply_table2_overhead(loggops::Params& p, const std::string& app,
                           int ranks) {
  // Table II keys overhead by node count; approximate it by rank count the
  // way the validation benches do (LULESH's middle scale is 27 = 3^3).
  const int node_key = ranks <= 8 ? 8 : (ranks <= 32 ? 32 : 64);
  const int lulesh_key = ranks <= 8 ? 8 : (ranks <= 27 ? 27 : 64);
  try {
    p.o = loggops::NetworkConfig::table2_overhead(
        app, app == "lulesh" ? lulesh_key : node_key);
  } catch (const Error&) {
    // Not a Table II application; the preset default stands.
  }
}

Campaign::Campaign(const CampaignSpec& spec)
    : topo_(spec.topo), mc_(spec.mc), threads_(spec.threads) {
  if (spec.apps.empty()) throw UsageError("campaign: empty app list");
  if (spec.ranks.empty()) throw UsageError("campaign: empty ranks list");
  if (spec.scales.empty()) throw UsageError("campaign: empty scales list");
  if (spec.topologies.empty()) {
    throw UsageError("campaign: empty topology list");
  }
  std::vector<ConfigVariant> configs;
  for (const ConfigVariant& cfg : spec.configs) {
    // Dedupe variants with equal parameter vectors whatever their spelling
    // ("--L-list=5,5.0"): like every other axis, a grid never analyzes one
    // scenario twice.  The first spelling names the surviving variant.
    bool seen = false;
    for (const ConfigVariant& prev : configs) {
      seen = seen || (same_params(prev.params, cfg.params) &&
                      prev.o_is_default == cfg.o_is_default);
    }
    if (!seen) configs.push_back(cfg);
  }
  if (configs.empty()) {
    configs.push_back({"cscs", loggops::NetworkConfig::cscs_testbed(), true});
  }
  {
    // Distinct surviving variants sharing one name would make result rows
    // indistinguishable — reject rather than guess.
    std::vector<std::string> names;
    for (const ConfigVariant& cfg : configs) names.push_back(cfg.name);
    if (dedup(names).size() != names.size()) {
      throw UsageError(
          "campaign: duplicate config variant names for distinct parameters");
    }
  }
  const auto apps_axis = dedup(spec.apps);
  const auto scales_axis = dedup(spec.scales);
  const auto topologies_axis = dedup(spec.topologies);
  for (const std::string& app : apps_axis) {
    // Clamp the requested rank counts to the app's supported values and
    // drop collisions (e.g. 8 and 9 both clamp to 8 for LULESH) so the
    // grid never runs one scenario twice.
    std::vector<int> ranks;
    for (const int want : spec.ranks) {
      if (want < 1) {
        throw UsageError(
            strformat("campaign: need ranks >= 1 (got %d)", want));
      }
      ranks.push_back(apps::supported_ranks(app, want));
    }
    ranks = dedup(ranks);
    for (const int r : ranks) {
      for (const double scale : scales_axis) {
        for (const std::string& topology : topologies_axis) {
          for (const ConfigVariant& cfg : configs) {
            Scenario s;
            s.app = app;
            s.ranks = r;
            s.scale = scale;
            s.topology = topology;
            s.config = cfg.name;
            s.params = cfg.params;
            if (cfg.o_is_default) apply_table2_overhead(s.params, app, r);
            s.delta_Ls = spec.delta_Ls;
            s.band_percents = spec.band_percents;
            validate_scenario(s);
            validate_topology(s, topo_);
            scenarios_.push_back(std::move(s));
          }
        }
      }
    }
  }
  validate_mc(mc_, scenarios_);
}

Campaign::Campaign(std::vector<Scenario> scenarios, TopologyOptions topo,
                   int threads, McAxis mc)
    : scenarios_(std::move(scenarios)), topo_(topo), mc_(mc),
      threads_(threads) {
  if (scenarios_.empty()) throw UsageError("campaign: empty scenario list");
  for (const Scenario& s : scenarios_) {
    validate_scenario(s);
    validate_topology(s, topo_);
  }
  validate_mc(mc_, scenarios_);
}

std::vector<Campaign::ScenarioResult> Campaign::run(const Probe& probe) {
  // Without a session cache the graphs live exactly as long as the run.
  GraphCache cache;
  return run(probe, cache);
}

std::vector<Campaign::ScenarioResult> Campaign::run(const Probe& probe,
                                                    GraphCache& cache) {
  // Without a session solver cache the lowerings live exactly as long as
  // the run (still shared across this run's scenarios and grid points).
  SolverCache solvers;
  return run(probe, cache, solvers);
}

std::vector<Campaign::ScenarioResult> Campaign::run(const Probe& probe,
                                                    GraphCache& cache,
                                                    SolverCache& solvers) {
  // Phase 1: resolve every distinct execution graph through the cache,
  // building the misses in parallel.  Keys are collected in
  // first-appearance order.
  std::vector<GraphKey> keys;
  std::set<GraphKey> seen;
  for (const Scenario& s : scenarios_) {
    const GraphKey key = graph_key(s);
    if (seen.insert(key).second) keys.push_back(key);
  }
  cache.warm(keys, threads_);

  // Phase 2: one solver per scenario over the cached (now read-only)
  // graphs; each job writes only its own slot, so result order is grid
  // order whatever the thread count.  Each worker thread owns one solve
  // cursor, reused across all scenarios it serves — steady-state solves
  // allocate nothing.
  std::vector<ScenarioResult> results(scenarios_.size());
  const int nworkers = effective_threads(scenarios_.size(), threads_);
  std::vector<lp::LoweredProblem::Cursor> curs(
      static_cast<std::size_t>(nworkers));
  parallel_for_workers(scenarios_.size(), threads_, [&](int w, std::size_t i) {
    const Scenario& s = scenarios_[i];
    const graph::Graph& g = cache.get(graph_key(s));
    results[i] = eval_scenario(s, g, topo_, mc_, probe, solvers,
                               curs[static_cast<std::size_t>(w)]);
  });

  stats_.graphs_built = keys.size();
  stats_.scenarios_run = scenarios_.size();
  return results;
}

Table campaign_points_table(const std::vector<Campaign::ScenarioResult>& results,
                            bool human, const std::string& probe_name) {
  bool has_mc = false;
  for (const auto& res : results) has_mc = has_mc || !res.mc.empty();
  std::vector<std::string> headers =
      human ? std::vector<std::string>{"app", "ranks", "scale", "topo",
                                       "config", "ΔL", "T(ΔL)", "slowdown",
                                       "lambda_L", "rho_L"}
            : std::vector<std::string>{"app", "ranks", "scale", "topology",
                                       "config", "delta_l_ns", "runtime_ns",
                                       "lambda_l", "rho_l"};
  if (has_mc) {
    const auto mc_headers =
        human ? std::vector<std::string>{"T mean", "T sd", "T q05", "T q95"}
              : std::vector<std::string>{"runtime_mean_ns", "runtime_sd_ns",
                                         "runtime_q05_ns", "runtime_q95_ns"};
    headers.insert(headers.end(), mc_headers.begin(), mc_headers.end());
  }
  if (!probe_name.empty()) headers.push_back(probe_name);
  Table t(std::move(headers));
  for (const auto& res : results) {
    const Scenario& s = res.scenario;
    for (std::size_t i = 0; i < res.points.size(); ++i) {
      const auto& pt = res.points[i];
      std::vector<std::string> row;
      if (human) {
        row = {s.app,
               strformat("%d", s.ranks),
               strformat("%g", s.scale),
               s.topology,
               s.config,
               human_time_ns(pt.delta_L),
               human_time_ns(pt.runtime),
               strformat("%+.2f%%",
                         100.0 * (pt.runtime / res.base_runtime - 1.0)),
               strformat("%.0f", pt.lambda),
               strformat("%.1f%%", 100.0 * pt.rho)};
        if (has_mc) {
          const Campaign::McPoint mp =
              i < res.mc.size() ? res.mc[i] : Campaign::McPoint{};
          row.push_back(human_time_ns(mp.mean));
          row.push_back(human_time_ns(mp.stddev));
          row.push_back(human_time_ns(mp.q05));
          row.push_back(human_time_ns(mp.q95));
        }
        if (!probe_name.empty()) row.push_back(human_time_ns(pt.probe));
      } else {
        row = {s.app,
               strformat("%d", s.ranks),
               strformat("%g", s.scale),
               s.topology,
               s.config,
               strformat("%.1f", pt.delta_L),
               strformat("%.1f", pt.runtime),
               strformat("%.6g", pt.lambda),
               strformat("%.6g", pt.rho)};
        if (has_mc) {
          const Campaign::McPoint mp =
              i < res.mc.size() ? res.mc[i] : Campaign::McPoint{};
          row.push_back(strformat("%.1f", mp.mean));
          row.push_back(strformat("%.1f", mp.stddev));
          row.push_back(strformat("%.1f", mp.q05));
          row.push_back(strformat("%.1f", mp.q95));
        }
        if (!probe_name.empty()) row.push_back(strformat("%.1f", pt.probe));
      }
      t.add_row(std::move(row));
    }
  }
  return t;
}

}  // namespace llamp::core
