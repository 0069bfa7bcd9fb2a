#include "api/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/analyzer.hpp"
#include "core/placement.hpp"
#include "injector/cluster_emulator.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "stoch/distribution.hpp"
#include "topo/spaces.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace llamp::api {
namespace {

/// The flattened scenario echo leading every JSONL result payload.
std::string app_meta_json(const ResolvedApp& app) {
  return strformat("\"app\": \"%s\", \"ranks\": %d, \"scale\": %s",
                   json_escape_string(app.app).c_str(), app.ranks,
                   json_double(app.scale).c_str());
}

/// The scenario of a single-scenario op: one variant, one cell, through the
/// same resolution a campaign grid point takes.
ResolvedApp resolve(const AppSpec& spec) {
  const core::Scenario s = core::resolve_cell(
      spec.app, spec.ranks, spec.scale,
      core::resolve_variant(spec.net, spec.L, spec.o, spec.G, spec.S));
  return {s.app, s.ranks, s.scale, s.params};
}

/// The kOpNames slot of `T`, an alternative of `V` (Request or Response).
template <typename T, typename V = Request, std::size_t I = 0>
constexpr std::size_t op_index_of() {
  if constexpr (std::is_same_v<T, std::variant_alternative_t<I, V>>) return I;
  else return op_index_of<T, V, I + 1>();
}

/// `{"op": "<name>", ` — the head of every result line.
template <typename Result>
std::string op_head() {
  return "{\"op\": \"" +
         std::string(kOpNames[op_index_of<Result, Response>()]) + "\", ";
}

}  // namespace

// ---------------------------------------------------------------------------
// Result rendering: the CLI subcommands' exact bytes (golden-pinned), plus
// the single-line JSONL payload forms.
// ---------------------------------------------------------------------------

void AnalyzeResult::render(core::OutputFormat format,
                           std::ostream& out) const {
  switch (format) {
    case core::OutputFormat::kTable:
      out << strformat("app: %s   ranks: %d   scale: %g\n", app.app.c_str(),
                       app.ranks, app.scale);
      out << "graph: " << graph_stats << '\n';
      out << report.to_string();
      break;
    case core::OutputFormat::kCsv:
      out << core::render(
          core::sweep_curve_table(report.curve, report.base_runtime, false),
          core::OutputFormat::kCsv);
      break;
    case core::OutputFormat::kJson:
      out << report.to_json();
      break;
  }
}

std::string AnalyzeResult::to_json_line() const {
  return op_head<AnalyzeResult>() + app_meta_json(app) + ", \"graph\": \"" +
         json_escape_string(graph_stats) + "\", \"report\": " +
         report.to_json_line() + '}';
}

void SweepResult::render(core::OutputFormat format, std::ostream& out) const {
  const bool human = format == core::OutputFormat::kTable;
  if (human) {
    out << strformat("app: %s   ranks: %d   scale: %g   base T: %s\n",
                     app.app.c_str(), app.ranks, app.scale,
                     human_time_ns(base_runtime).c_str());
  }
  out << core::render(core::sweep_curve_table(points, base_runtime, human),
                      format);
}

std::string SweepResult::to_json_line() const {
  return op_head<SweepResult>() + app_meta_json(app) +
         ", \"base_runtime_ns\": " + json_double(base_runtime) +
         ", \"points\": " +
         core::render_json_line(
             core::sweep_curve_table(points, base_runtime, false)) +
         '}';
}

void CampaignResult::render(core::OutputFormat format,
                            std::ostream& out) const {
  const bool human = format == core::OutputFormat::kTable;
  const std::string probe_name =
      has_probe ? (human ? "measured" : "measured_ns") : "";
  if (human) {
    out << strformat(
        "campaign: %zu scenarios x %zu ΔL points (%zu distinct graphs)\n",
        scenarios, delta_points, distinct_graphs);
  }
  out << core::render(core::campaign_points_table(results, human, probe_name),
                      format);
}

std::string CampaignResult::to_json_line() const {
  return strformat("%s\"scenarios\": %zu, \"delta_points\": %zu, "
                   "\"distinct_graphs\": %zu, \"rows\": ",
                   op_head<CampaignResult>().c_str(), scenarios,
                   delta_points, distinct_graphs) +
         core::render_json_line(core::campaign_points_table(
             results, false, has_probe ? "measured_ns" : "")) +
         '}';
}

void McResult::render(core::OutputFormat format, std::ostream& out) const {
  const bool human = format == core::OutputFormat::kTable;
  if (human) {
    out << strformat("app: %s   ranks: %d   scale: %g\n", app.app.c_str(),
                     app.ranks, app.scale);
    out << strformat(
        "mc: %d samples   seed %llu   L~%s   o~%s   G~%s   edge noise "
        "sigma=%g bias=%g\n",
        spec.samples, static_cast<unsigned long long>(spec.seed),
        spec.L.to_string().c_str(), spec.o.to_string().c_str(),
        spec.G.to_string().c_str(), spec.noise.sigma, spec.noise.bias);
  }
  if (format == core::OutputFormat::kJson) {
    // The config echo makes bench provenance self-describing: `batched`
    // records whether the sample-axis kernel ran and `batch_width` its
    // compile-time lane count.  Both are functions of the request flags
    // alone (there is no runtime batch toggle), so the bytes stay
    // deterministic per command line whatever the thread count.
    out << strformat(
        "{\"config\": {%s, \"samples\": %d, \"seed\": %llu, "
        "\"batched\": %s, \"batch_width\": %d},\n \"summary\": %s}\n",
        app_meta_json(app).c_str(), spec.samples,
        static_cast<unsigned long long>(spec.seed),
        result.batched ? "true" : "false", result.batch_width,
        core::render_json_line(stoch::mc_summary_table(result, false))
            .c_str());
    return;
  }
  out << core::render(stoch::mc_summary_table(result, human), format);
}

std::string McResult::to_json_line() const {
  return strformat(
             "%s%s, \"samples\": %d, \"seed\": %llu, "
             "\"batched\": %s, \"batch_width\": %d, "
             "\"dist_L\": \"%s\", \"dist_o\": \"%s\", \"dist_G\": \"%s\", "
             "\"edge_sigma\": %s, \"edge_bias\": %s, \"summary\": ",
             op_head<McResult>().c_str(), app_meta_json(app).c_str(),
             spec.samples, static_cast<unsigned long long>(spec.seed),
             result.batched ? "true" : "false", result.batch_width,
             json_escape_string(spec.L.to_string()).c_str(),
             json_escape_string(spec.o.to_string()).c_str(),
             json_escape_string(spec.G.to_string()).c_str(),
             json_double(spec.noise.sigma).c_str(),
             json_double(spec.noise.bias).c_str()) +
         core::render_json_line(stoch::mc_summary_table(result, false)) +
         '}';
}

void TopoResult::render(core::OutputFormat format, std::ostream& out) const {
  switch (format) {
    case core::OutputFormat::kTable: {
      out << strformat(
          "app: %s   ranks: %d   per-wire latency sensitivity\n\n",
          app.app.c_str(), app.ranks);
      Table table(
          {"topology", "T(l_wire)", "dT/dl_wire", "1% tolerance l_wire"});
      for (const Sensitivity& s : topologies) {
        table.add_row({s.name, human_time_ns(s.runtime),
                       strformat("%.0f", s.gradient),
                       std::isfinite(s.tolerance)
                           ? human_time_ns(s.tolerance)
                           : "unbounded"});
      }
      out << table.to_string();
      out << strformat(
          "\nDragonfly wire classes (budget = 1%% over T = %s):\n",
          human_time_ns(df_base_runtime).c_str());
      Table class_table({"class", "lambda", "1% tolerance"});
      for (const WireClass& c : classes) {
        class_table.add_row({c.name, strformat("%.0f", c.lambda),
                             std::isfinite(c.tolerance)
                                 ? human_time_ns(c.tolerance)
                                 : "unbounded"});
      }
      out << class_table.to_string();
      break;
    }
    case core::OutputFormat::kJson:
      out << to_json_line() << '\n';
      break;
    case core::OutputFormat::kCsv:
      throw UsageError("topo: csv output is not supported");
  }
}

std::string TopoResult::to_json_line() const {
  std::string out = op_head<TopoResult>() + app_meta_json(app) +
                    ", \"topologies\": [";
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const Sensitivity& s = topologies[i];
    out += strformat(
        "{\"topology\": \"%s\", \"runtime_ns\": %s, \"gradient\": %s, "
        "\"tolerance_l_wire_ns\": %s}",
        json_escape_string(s.name).c_str(), json_double(s.runtime).c_str(),
        json_double(s.gradient).c_str(), json_double(s.tolerance).c_str());
    if (i + 1 < topologies.size()) out += ", ";
  }
  out += strformat("], \"dragonfly_base_runtime_ns\": %s, "
                   "\"dragonfly_classes\": [",
                   json_double(df_base_runtime).c_str());
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const WireClass& c = classes[i];
    out += strformat(
        "{\"class\": \"%s\", \"lambda\": %s, \"tolerance_l_wire_ns\": %s}",
        json_escape_string(c.name).c_str(), json_double(c.lambda).c_str(),
        json_double(c.tolerance).c_str());
    if (i + 1 < classes.size()) out += ", ";
  }
  out += "]}";
  return out;
}

void PlaceResult::render(core::OutputFormat format, std::ostream& out) const {
  switch (format) {
    case core::OutputFormat::kTable: {
      out << strformat("app: %s   ranks: %d on %s\n\n", app.app.c_str(),
                       app.ranks, topology.c_str());
      Table table({"strategy", "predicted runtime", "vs block"});
      const double block = strategies.empty() ? 0.0 : strategies[0].runtime;
      for (std::size_t i = 0; i < strategies.size(); ++i) {
        const Strategy& s = strategies[i];
        table.add_row(
            {s.name, human_time_ns(s.runtime),
             i == 0 ? "+0.00%"
                    : strformat("%+.2f%%",
                                100.0 * (s.runtime - block) / block)});
      }
      out << table.to_string();
      break;
    }
    case core::OutputFormat::kJson:
      out << to_json_line() << '\n';
      break;
    case core::OutputFormat::kCsv:
      throw UsageError("place: csv output is not supported");
  }
}

std::string PlaceResult::to_json_line() const {
  std::string out = op_head<PlaceResult>() + app_meta_json(app) +
                    ", \"topology\": \"" + json_escape_string(topology) +
                    "\", \"strategies\": [";
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    out += strformat("{\"strategy\": \"%s\", \"runtime_ns\": %s}",
                     json_escape_string(strategies[i].name).c_str(),
                     json_double(strategies[i].runtime).c_str());
    if (i + 1 < strategies.size()) out += ", ";
  }
  out += "]}";
  return out;
}

void render(const Response& res, core::OutputFormat format,
            std::ostream& out) {
  std::visit([&](const auto& r) { r.render(format, out); }, res);
}

std::string to_json_line(const Response& res) {
  return std::visit([](const auto& r) { return r.to_json_line(); }, res);
}

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options opts) : max_batch_threads_(opts.threads) {
  // Pre-register every hot-path handle once, here, so instrumentation
  // sites are a single array-indexed relaxed add (llamp-lint's hot-metric
  // rule rejects string lookups inside declared hot-path regions).
  handles_.requests = metrics_.counter("engine.requests");
  handles_.errors = metrics_.counter("engine.errors");
  for (std::size_t op = 0; op < kOpNames.size(); ++op) {
    handles_.ops[op] =
        metrics_.counter("engine.op." + std::string(kOpNames[op]));
  }
  handles_.request_ns = metrics_.histogram("engine.request_ns");
  handles_.batches = metrics_.counter("batch.batches");
  handles_.batch_requests = metrics_.counter("batch.requests");
  handles_.batch_request_ns = metrics_.histogram("batch.request_ns");
  handles_.mc_fast_path = metrics_.counter("mc.fast_path");
  handles_.mc_general_path = metrics_.counter("mc.general_path");
  handles_.mc_batched = metrics_.counter("mc.batched_runs");
  handles_.mc_lane_groups = metrics_.counter("mc.lane_groups");
  handles_.mc_lane_slots = metrics_.counter("mc.lane_slots");
  handles_.mc_lane_samples = metrics_.counter("mc.lane_samples");
  start_time_ = monotonic_now();
}

std::uint64_t Engine::uptime_ns() const {
  const TimeNs now = monotonic_now();
  return now > start_time_ ? static_cast<std::uint64_t>(now - start_time_)
                           : 0u;
}

template <typename R>
auto Engine::timed(const R& req) {
  constexpr std::size_t op = op_index_of<R>();
  const obs::SpanScope span(tracer_, kOpNames[op].data());
  const TimeNs t0 = monotonic_now();
  handles_.requests.inc();
  handles_.ops[op].inc();
  try {
    auto out = execute(req);
    handles_.request_ns.record(monotonic_now() - t0);
    return out;
  } catch (...) {
    handles_.errors.inc();
    handles_.request_ns.record(monotonic_now() - t0);
    throw;
  }
}

core::GraphKey Engine::key_for(const ResolvedApp& app) {
  return {app.app, app.ranks, app.scale, app.params.S};
}

const graph::Graph& Engine::graph_for(const ResolvedApp& app) {
  const obs::SpanScope span(tracer_, "graph");
  return cache_.get(key_for(app));
}

AnalyzeResult Engine::analyze(const AnalyzeRequest& req) { return timed(req); }
SweepResult Engine::sweep(const SweepRequest& req) { return timed(req); }
CampaignResult Engine::campaign(const CampaignRequest& req) {
  return timed(req);
}
McResult Engine::mc(const McRequest& req) { return timed(req); }
TopoResult Engine::topo(const TopoRequest& req) { return timed(req); }
PlaceResult Engine::place(const PlaceRequest& req) { return timed(req); }

Response Engine::run(const Request& req) {
  return std::visit([&](const auto& r) -> Response { return timed(r); }, req);
}

AnalyzeResult Engine::execute(const AnalyzeRequest& req) {
  const ResolvedApp app = resolve(req.app);
  // Degenerate grids must fail before any graph is built or cached.
  (void)core::linear_grid(us(req.grid.dl_max_us), req.grid.points);
  const graph::Graph& g = graph_for(app);
  core::ReportOptions opts;
  opts.sweep_max = us(req.grid.dl_max_us);
  opts.sweep_points = req.grid.points;
  opts.threads = req.threads;
  AnalyzeResult res;
  res.app = app;
  res.graph_stats = g.stats_string();
  // Warm-starting analyzer: lowering and anchors come from the session
  // solver cache.  Bytes are identical to a cold analysis by contract.
  const core::LatencyAnalyzer an(g, app.params, solver_cache_, key_for(app));
  res.report = core::make_report(an, opts);
  return res;
}

SweepResult Engine::execute(const SweepRequest& req) {
  const ResolvedApp app = resolve(req.app);
  const auto grid = core::linear_grid(us(req.grid.dl_max_us), req.grid.points);
  const graph::Graph& g = graph_for(app);
  const core::LatencyAnalyzer an(g, app.params, solver_cache_, key_for(app));
  SweepResult res;
  res.app = app;
  res.base_runtime = an.base_runtime();
  res.points = an.sweep(grid, req.threads);
  return res;
}

namespace {

/// The sampled-parameter distribution of an mc request: the dist spec
/// string wins when given, otherwise the sigma as relative normal jitter
/// (0 = degenerate) — exactly the CLI's --dist-X / --sigma-X precedence.
stoch::Distribution mc_distribution(const std::string& dist, double sigma,
                                    const char* param) {
  if (!dist.empty()) return stoch::parse_distribution(dist);
  auto d = stoch::Distribution::rel_normal(sigma);
  d.validate(std::string("--sigma-") + param);
  return d;
}

}  // namespace

McResult Engine::execute(const McRequest& req) {
  const ResolvedApp app = resolve(req.app);
  const auto grid = core::linear_grid(us(req.grid.dl_max_us), req.grid.points);
  stoch::McSpec spec;
  spec.L = mc_distribution(req.dist_L, req.sigma_L, "L");
  spec.o = mc_distribution(req.dist_o, req.sigma_o, "o");
  spec.G = mc_distribution(req.dist_G, req.sigma_G, "G");
  spec.noise.sigma = req.edge_sigma;
  spec.noise.bias = req.edge_bias;
  spec.samples = req.samples;
  spec.seed = req.seed;
  spec.threads = req.threads;
  spec.delta_Ls = grid;
  spec.band_percents = req.bands;
  spec.validate();
  const graph::Graph& g = graph_for(app);
  McResult res;
  res.app = app;
  res.spec = spec;
  // When the run's shared-solver fast path engages (only L sampled), its
  // operating point is known up front — lower it through the session
  // solver cache so repeated mc requests (and analyze/sweep of the same
  // scenario when the point coincides) share one problem and one
  // tolerance memo.  run_mc re-verifies the handle; the result bytes
  // cannot depend on it.
  std::shared_ptr<core::SolverCache::Entry> entry;
  if (const auto sp = stoch::shared_operating_point(spec, app.params)) {
    entry = solver_cache_.latency(key_for(app), g, *sp);
    handles_.mc_fast_path.inc();
  } else {
    handles_.mc_general_path.inc();
  }
  res.result = stoch::run_mc(g, app.params, spec, entry);
  // Lane-occupancy accounting, post hoc from the result's config echo so
  // the sampling loops stay untouched (the bench-drift bound): the batched
  // kernel runs ceil(samples / width) groups of `width` lanes, of which
  // `samples` are occupied — the slots-vs-samples gap is ragged-tail waste.
  if (res.result.batched && res.result.batch_width > 0) {
    const auto width = static_cast<std::uint64_t>(res.result.batch_width);
    const auto samples = static_cast<std::uint64_t>(res.result.samples);
    const std::uint64_t groups = (samples + width - 1) / width;
    handles_.mc_batched.inc();
    handles_.mc_lane_groups.inc(groups);
    handles_.mc_lane_slots.inc(groups * width);
    handles_.mc_lane_samples.inc(samples);
  }
  return res;
}

namespace {

/// The LogGPS axis of a campaign request: network presets crossed with the
/// optional L/o/G override lists; a single S override applies to every
/// variant.  Variant names embed the request's original number spelling,
/// so two distinct list entries can never collide into one label.
std::vector<core::ConfigVariant> campaign_configs(const CampaignRequest& req) {
  struct Override {
    std::string text;
    std::optional<double> value;
  };
  const auto axis = [](const std::vector<std::string>& list,
                       const char* key) {
    std::vector<Override> out;
    for (const std::string& field : list) {
      const auto f = trim(field);
      if (f.empty()) continue;
      try {
        out.push_back({std::string(f), parse_double(f)});
      } catch (const Error&) {
        throw UsageError(strformat("bad --%s value '%s'", key,
                                   std::string(f).c_str()));
      }
    }
    if (out.empty() && !list.empty()) {
      throw UsageError(strformat("empty --%s list", key));
    }
    // An absent axis contributes one pass-through slot to the cross
    // product.
    if (out.empty()) out.emplace_back();
    return out;
  };
  const auto Ls = axis(req.L_list, "L-list");
  const auto os_ = axis(req.o_list, "o-list");
  const auto Gs = axis(req.G_list, "G-list");
  if (req.nets.empty()) throw UsageError("empty --nets list");
  std::vector<core::ConfigVariant> out;
  for (const std::string& net : req.nets) {
    for (const Override& L : Ls) {
      for (const Override& o : os_) {
        for (const Override& G : Gs) {
          core::ConfigVariant v = core::resolve_variant(net, L.value, o.value,
                                                        G.value, req.S);
          if (L.value) v.name += "/L=" + L.text;
          if (o.value) v.name += "/o=" + o.text;
          if (G.value) v.name += "/G=" + G.text;
          out.push_back(std::move(v));
        }
      }
    }
  }
  return out;
}

}  // namespace

CampaignResult Engine::execute(const CampaignRequest& req) {
  core::CampaignSpec spec;
  spec.apps = req.apps;
  spec.ranks = req.ranks;
  spec.scales = req.scales;
  spec.topologies = req.topologies;
  spec.configs = campaign_configs(req);
  spec.delta_Ls = core::linear_grid(us(req.grid.dl_max_us), req.grid.points);
  spec.threads = req.threads;
  spec.topo = req.topo;
  spec.mc.samples = req.mc_samples;
  spec.mc.seed = req.seed;
  spec.mc.sigma_L = req.mc_sigma_L;
  spec.mc.sigma_o = req.mc_sigma_o;
  spec.mc.sigma_G = req.mc_sigma_G;
  spec.mc.noise.sigma = req.mc_edge_sigma;
  spec.mc.noise.bias = req.mc_edge_bias;

  // Optional per-point measurement column: the seeded cluster emulator as
  // the campaign probe.  Every scenario constructs its own emulator from
  // the shared seed, so the column's bytes depend only on the spec — never
  // on the thread count or scenario interleaving.  The probe knobs are
  // validated whatever the probe state — a bad value must be a usage
  // error, not a silent no-op.
  injector::ClusterEmulator::Config emu_cfg;
  emu_cfg.noise_sigma = req.noise_sigma;
  emu_cfg.seed = req.seed;
  if (req.probe_runs < 1) {
    throw UsageError(
        strformat("need --probe-runs >= 1 (got %d)", req.probe_runs));
  }
  if (emu_cfg.noise_sigma < 0.0) {
    throw UsageError(
        strformat("need --noise-sigma >= 0 (got %g)", emu_cfg.noise_sigma));
  }
  core::Campaign::Probe probe;
  if (!req.probe.empty()) {
    if (req.probe != "emulator") {
      throw UsageError("unknown --probe '" + req.probe + "' (want emulator)");
    }
    const int probe_runs = req.probe_runs;
    probe = [emu_cfg, probe_runs](const core::Scenario& s,
                                  const graph::Graph& g) {
      injector::ClusterEmulator emulator(g, s.params, emu_cfg);
      return emulator.sweep(s.delta_Ls, probe_runs);
    };
  }

  core::Campaign campaign(spec);
  CampaignResult res;
  res.results = campaign.run(probe, cache_, solver_cache_);
  res.scenarios = campaign.stats().scenarios_run;
  res.delta_points = spec.delta_Ls.size();
  res.distinct_graphs = campaign.stats().graphs_built;
  res.has_probe = static_cast<bool>(probe);
  return res;
}

// topo and place read whole results through their entry's row memo, keyed
// by every request knob the entry key leaves out, so a repeat lowers
// nothing.  A hit takes its row names from the fitted topologies and the
// fixed class names.

TopoResult Engine::execute(const TopoRequest& req) {
  const ResolvedApp app = resolve(req.app);
  const core::TopologyOptions shape{req.l_wire, req.d_switch, req.ft_radix,
                                    req.df_groups, req.df_routers,
                                    req.df_hosts};
  const auto fat_tree = core::fit_topology("fat-tree", shape, app.ranks);
  const auto dragonfly = core::fit_topology("dragonfly", shape, app.ranks);
  const graph::Graph& g = graph_for(app);

  // Per topology (runtime, gradient, tolerance), the Dragonfly base
  // runtime, then per wire class (λ, tolerance).
  const auto compute = [&] {
    std::vector<double> rows;
    lp::LoweredProblem::Cursor cur;
    // Every search is a one-lane pooled search opened from the one-lane
    // pass that produced its row's runtime or λ, taken at the space's base
    // value (l_wire for every class).
    for (const topo::Topology* t : {fat_tree.get(), dragonfly.get()}) {
      const auto prob = core::lower_wire_latency(g, app.params, *t, shape);
      const double l_wire = prob->space().base_value(0);
      lp::LoweredProblem::BatchPoint at;
      prob->solve_batch_points(0, &l_wire, 1, cur, &at);
      const double budget = core::finite_base_runtime(at.value) * 1.01;
      double tol = 0.0;
      prob->max_param_for_budget_from_batch(0, &l_wire, &budget, 1, cur, &tol,
                                            &at);
      rows.insert(rows.end(), {at.value, at.slope, tol});
    }

    // Dragonfly per-class breakdown (Fig. 19): tolerance of each wire class
    // with the other two held at their base values.
    auto df_space = std::make_shared<lp::LinkClassParamSpace>(
        topo::make_dragonfly_class_space(
            app.params, dynamic_cast<const topo::Dragonfly&>(*dragonfly),
            topo::identity_placement(app.ranks), req.l_wire, req.l_wire,
            req.l_wire, req.d_switch));
    const lp::LoweredProblem df_prob(g, df_space);
    const double base0 = df_space->base_value(0);
    lp::LoweredProblem::BatchPoint base_at;
    df_prob.solve_batch_points(0, &base0, 1, cur, &base_at);
    const double T0 = core::finite_base_runtime(base_at.value);
    const double budget = T0 * 1.01;
    rows.push_back(T0);
    for (int k = 0; k < df_space->num_params(); ++k) {
      const double from = df_space->base_value(k);
      lp::LoweredProblem::BatchPoint at = base_at;
      if (k != 0) df_prob.solve_batch_points(k, &from, 1, cur, &at);
      double tol = 0.0;
      df_prob.max_param_for_budget_from_batch(k, &from, &budget, 1, cur, &tol,
                                              &at);
      rows.insert(rows.end(), {at.slope, tol});
    }
    return rows;
  };
  const std::vector<double> rows =
      solver_cache_.entry(key_for(app), app.params)
          ->rows(core::SolverCache::Entry::RowOp::kTopo,
                 {req.l_wire, req.d_switch, static_cast<double>(req.ft_radix),
                  static_cast<double>(req.df_groups),
                  static_cast<double>(req.df_routers),
                  static_cast<double>(req.df_hosts)},
                 compute);

  TopoResult res;
  res.app = app;
  const double* row = rows.data();
  for (const topo::Topology* t : {fat_tree.get(), dragonfly.get()}) {
    res.topologies.push_back({t->name(), row[0], row[1], row[2]});
    row += 3;
  }
  res.df_base_runtime = *row++;
  for (const char* name : topo::kDragonflyClasses) {
    res.classes.push_back({name, row[0], row[1]});
    row += 2;
  }
  return res;
}

PlaceResult Engine::execute(const PlaceRequest& req) {
  const ResolvedApp app = resolve(req.app);
  core::TopologyOptions shape;
  shape.l_wire = req.l_wire;
  shape.d_switch = req.d_switch;
  shape.ft_radix = req.ft_radix;
  const auto ft = core::fit_topology("fat-tree", shape, app.ranks);
  const graph::Graph& g = graph_for(app);

  // The block, volume-greedy and Algorithm 3 runtimes, then the swap count.
  const auto compute = [&] {
    const core::WireCost wire{req.l_wire, req.d_switch};
    const auto volume =
        core::volume_greedy_placement(g, app.params, *ft, wire);
    const auto opt = core::optimize_placement(g, app.params, *ft, wire, {},
                                              req.max_rounds);
    // Algorithm 3 starts from the block placement, so its round 0 is the
    // block row's solve.
    return std::vector<double>{core::finite_base_runtime(opt.initial_runtime),
                               volume.predicted_runtime,
                               opt.predicted_runtime,
                               static_cast<double>(opt.swaps)};
  };
  const std::vector<double> rows =
      solver_cache_.entry(key_for(app), app.params)
          ->rows(core::SolverCache::Entry::RowOp::kPlace,
                 {req.l_wire, req.d_switch, static_cast<double>(req.ft_radix),
                  static_cast<double>(req.max_rounds)},
                 compute);

  PlaceResult res;
  res.app = app;
  res.topology = ft->name();
  res.strategies.push_back({"block (default)", rows[0]});
  res.strategies.push_back({"volume-greedy", rows[1]});
  res.strategies.push_back(
      {strformat("llamp algorithm 3 (%d swaps)", static_cast<int>(rows[3])),
       rows[2]});
  return res;
}

namespace {

/// A copy of the request with its inner parallelism knob forced to 1
/// (types without one — topo, place — pass through unchanged).
Request single_threaded(Request req) {
  std::visit(
      [](auto& r) {
        if constexpr (requires { r.threads; }) r.threads = 1;
      },
      req);
  return req;
}

}  // namespace

std::vector<Engine::Outcome> Engine::run_batch(
    const std::vector<Request>& requests, int threads) {
  const obs::SpanScope span(tracer_, "batch.run");
  handles_.batches.inc();
  handles_.batch_requests.inc(requests.size());
  std::vector<Outcome> outcomes(requests.size());
  // When the batch itself fans out, request-level parallelism wins: each
  // request runs its sweeps/samples single-threaded instead of starting a
  // hardware-concurrency fan-out next to W already-busy workers.  Thread
  // counts never change result bytes (the repo-wide determinism
  // contract), so this is purely a scheduling choice.
  const int cap = max_batch_threads_ > 0 &&
                          (threads <= 0 || threads > max_batch_threads_)
                      ? max_batch_threads_
                      : threads;
  const bool parallel_batch = effective_threads(requests.size(), cap) > 1;
  parallel_for_workers(requests.size(), cap, [&](int, std::size_t i) {
    // One request's failure is its own outcome, never the batch's: the
    // remaining lines still execute and emit in order.
    const TimeNs t0 = monotonic_now();
    try {
      outcomes[i].response =
          run(parallel_batch ? single_threaded(requests[i]) : requests[i]);
    } catch (const UsageError& e) {
      outcomes[i].error = e.what();
      outcomes[i].usage_error = true;
    } catch (const std::exception& e) {
      outcomes[i].error = e.what();
    }
    outcomes[i].elapsed_ns = monotonic_now() - t0;
  });
  // Per-request latencies feed the batch histogram in input order from
  // this (single) thread, not from the workers — so the quantile sketch's
  // feed order is deterministic whatever the thread count.
  for (const Outcome& o : outcomes) {
    handles_.batch_request_ns.record(o.elapsed_ns);
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// Observability surfaces.
// ---------------------------------------------------------------------------

obs::Snapshot Engine::metrics_snapshot() const {
  obs::Snapshot snap = metrics_.snapshot();
  // Import the subsystem tallies that live outside the registry (they
  // predate it and their tests pin the struct forms).  Deterministic
  // per-request-sequence values go in as counters; byte sizes and timing-
  // or machine-valued quantities go in as gauges, matching the snapshot's
  // determinism contract.
  const core::GraphCache::Stats gc = cache_.stats();
  const core::SolverCache::Stats sc = solver_cache_.stats();
  snap.set_counter("graph_cache.built", gc.built);
  snap.set_counter("graph_cache.hits", gc.hits);
  // Scrape bookkeeping: the sequence number orders snapshots of one
  // session (monotonic from 1; a restart resets it), uptime stamps them.
  snap.set_counter("engine.metrics_seq",
                   metrics_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  snap.set_gauge("engine.uptime_ns", static_cast<double>(uptime_ns()));
  snap.set_gauge("graph_cache.bytes", static_cast<double>(gc.bytes));
  for (const auto& [name, v] : sc.fields()) {
    if (name.ends_with("_bytes")) {
      snap.set_gauge("solver_cache." + name, static_cast<double>(v));
    } else {
      snap.set_counter("solver_cache." + name, v);
    }
  }
  return snap;
}

std::string Engine::metrics_json() const { return metrics_snapshot().to_json(); }

std::string Engine::metrics_string() const {
  return metrics_snapshot().to_string();
}

}  // namespace llamp::api
