#include "layers.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <variant>

#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "core/campaign.hpp"
#include "core/placement.hpp"
#include "core/report.hpp"
#include "schedgen/schedgen.hpp"
#include "serve/http.hpp"
#include "stoch/distribution.hpp"
#include "stoch/mc.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

namespace api = llamp::api;
namespace core = llamp::core;
namespace obs = llamp::obs;
using llamp::Error;
using llamp::strformat;
using llamp::UsageError;

/// api::Engine's scenario resolution, restated through public functions
/// (the engine's own resolve() is private).
api::ResolvedApp resolve(const api::AppSpec& spec) {
  api::ResolvedApp r;
  r.app = spec.app;
  r.ranks = llamp::apps::supported_ranks(spec.app, spec.ranks);
  r.scale = spec.scale;
  if (!(r.scale > 0.0) || !std::isfinite(r.scale)) {
    throw UsageError(strformat("need finite --scale > 0 (got %g)", r.scale));
  }
  if (spec.net == "cscs") {
    r.params = llamp::loggops::NetworkConfig::cscs_testbed();
  } else if (spec.net == "daint") {
    r.params = llamp::loggops::NetworkConfig::piz_daint();
  } else {
    throw Error("unknown --net preset '" + spec.net + "'");
  }
  core::apply_table2_overhead(r.params, r.app, r.ranks);
  if (spec.L) r.params.L = *spec.L;
  if (spec.o) r.params.o = *spec.o;
  if (spec.G) r.params.G = *spec.G;
  if (spec.S) r.params.S = *spec.S;
  r.params.validate();
  return r;
}

core::GraphKey key_for(const api::ResolvedApp& app) {
  return {app.app, app.ranks, app.scale, app.params.S};
}

std::string fingerprint(const core::GraphKey& k, const llamp::loggops::Params& p) {
  return strformat("%s/%d/%a/%llu|%a|%a|%a|%a|%a", k.app.c_str(), k.ranks,
                   k.scale, static_cast<unsigned long long>(k.S), p.L, p.o,
                   p.g, p.G, p.O);
}

llamp::stoch::Distribution mc_distribution(const std::string& dist,
                                           double sigma, const char* param) {
  if (!dist.empty()) return llamp::stoch::parse_distribution(dist);
  auto d = llamp::stoch::Distribution::rel_normal(sigma);
  d.validate(std::string("--sigma-") + param);
  return d;
}

/// The request bytes serve::Client puts on the wire for this item.
std::string http_frame(const Item& item) {
  return strformat("POST /v1/%s HTTP/1.1\r\nHost: llamp\r\nContent-Length: %zu\r\n\r\n",
                   item.op.c_str(), item.body.size()) +
         item.body;
}

/// Sink for values computed only to be timed.
volatile double g_sink = 0.0;

}  // namespace

LayerWalker::LayerWalker(obs::Tracer& tracer, bool wire)
    : tracer_(tracer), wire_(wire), topo_engine_(api::Engine::Options{.threads = 1}) {}

std::string LayerWalker::run(const Item& item, const char* root) {
  pending_ = Pending{};
  pending_.body = item.body;
  std::string line;

  const auto graph = [&](const api::ResolvedApp& app) -> const llamp::graph::Graph& {
    const core::GraphKey key = key_for(app);
    const llamp::graph::Graph* g = nullptr;
    if (seen_graphs_.insert(key).second) {
      pending_.built.emplace_back(key, app.params);
      const obs::SpanScope span(tracer_, "core.graph_cache.build");
      g = &graphs_.get(key);
    } else {
      const obs::SpanScope span(tracer_, "core.graph_cache.get");
      g = &graphs_.get(key);
    }
    request_graphs_.emplace_back(g->num_vertices(), g->num_edges());
    return *g;
  };
  const auto lowering = [&](const core::GraphKey& key, const llamp::graph::Graph& g,
                            const llamp::loggops::Params& p) {
    if (seen_solvers_.insert(fingerprint(key, p)).second) {
      const obs::SpanScope span(tracer_, "lp.lower");
      return solvers_.latency(key, g, p);
    }
    const obs::SpanScope span(tracer_, "core.solver_cache.lookup");
    return solvers_.latency(key, g, p);
  };

  const auto analyze = [&](const api::AnalyzeRequest& r) {
    (void)core::linear_grid(llamp::us(r.grid.dl_max_us), r.grid.points);
    api::AnalyzeResult res;
    res.app = resolve(r.app);
    const core::GraphKey key = key_for(res.app);
    const llamp::graph::Graph& g = graph(res.app);
    (void)lowering(key, g, res.app.params);
    // make_report's steps, one public call at a time.
    const core::ReportOptions opts;
    const double sweep_max = llamp::us(r.grid.dl_max_us);
    core::ToleranceReport& rep = res.report;
    rep.params = res.app.params;
    std::optional<core::LatencyAnalyzer> an;
    {
      const obs::SpanScope span(tracer_, "core.report.base");
      an.emplace(g, res.app.params, solvers_, key);
      rep.base_runtime = an->base_runtime();
      rep.lambda_L_base = an->lambda_L();
    }
    {
      const obs::SpanScope span(tracer_, "core.report.lambda_G");
      rep.lambda_G = an->lambda_G();
    }
    {
      const obs::SpanScope span(tracer_, "core.report.tolerance");
      for (const double pct : opts.band_percents) {
        rep.bands.push_back({pct, an->tolerance_delta(pct)});
      }
    }
    {
      const obs::SpanScope span(tracer_, "core.report.sweep");
      std::vector<llamp::TimeNs> grid;
      for (int i = 0; i < r.grid.points; ++i) {
        grid.push_back(sweep_max * i / (r.grid.points - 1));
      }
      rep.curve = an->sweep(grid, r.threads);
    }
    {
      const obs::SpanScope span(tracer_, "core.report.critical");
      const double step = sweep_max / (4.0 * static_cast<double>(opts.max_critical));
      const double L = res.app.params.L;
      rep.critical_latencies =
          an->solver().critical_values_algorithm2(0, L, L + sweep_max, step);
      if (rep.critical_latencies.size() > opts.max_critical) {
        rep.critical_latencies.resize(opts.max_critical);
      }
    }
    res.graph_stats = g.stats_string();
    return api::Response(std::move(res));
  };

  const auto sweep = [&](const api::SweepRequest& r) {
    const auto grid = core::linear_grid(llamp::us(r.grid.dl_max_us), r.grid.points);
    api::SweepResult res;
    res.app = resolve(r.app);
    const core::GraphKey key = key_for(res.app);
    const llamp::graph::Graph& g = graph(res.app);
    (void)lowering(key, g, res.app.params);
    std::optional<core::LatencyAnalyzer> an;
    {
      const obs::SpanScope span(tracer_, "core.report.base");
      an.emplace(g, res.app.params, solvers_, key);
      res.base_runtime = an->base_runtime();
    }
    {
      const obs::SpanScope span(tracer_, "core.report.sweep");
      res.points = an->sweep(grid, r.threads);
    }
    return api::Response(std::move(res));
  };

  const auto mc = [&](const api::McRequest& r) {
    api::McResult res;
    res.app = resolve(r.app);
    llamp::stoch::McSpec& spec = res.spec;
    spec.L = mc_distribution(r.dist_L, r.sigma_L, "L");
    spec.o = mc_distribution(r.dist_o, r.sigma_o, "o");
    spec.G = mc_distribution(r.dist_G, r.sigma_G, "G");
    spec.noise.sigma = r.edge_sigma;
    spec.noise.bias = r.edge_bias;
    spec.samples = r.samples;
    spec.seed = r.seed;
    spec.threads = r.threads;
    spec.delta_Ls = core::linear_grid(llamp::us(r.grid.dl_max_us), r.grid.points);
    spec.band_percents = r.bands;
    spec.validate();
    const core::GraphKey key = key_for(res.app);
    const llamp::graph::Graph& g = graph(res.app);
    std::shared_ptr<const llamp::lp::LoweredProblem> lowered;
    if (const auto sp = llamp::stoch::shared_operating_point(spec, res.app.params)) {
      lowered = lowering(key, g, *sp)->problem();
    }
    pending_.mc = Pending::Mc{&g, res.app.params, spec, lowered};
    {
      const obs::SpanScope span(tracer_, "stoch.run_mc");
      res.result = llamp::stoch::run_mc(g, res.app.params, spec, std::move(lowered));
    }
    return api::Response(std::move(res));
  };

  const auto topo = [&](const api::TopoRequest& r) {
    const obs::SpanScope span(tracer_, "topo.sensitivity");
    return api::Response(topo_engine_.topo(r));
  };

  const auto place = [&](const api::PlaceRequest& r) {
    api::PlaceResult res;
    res.app = resolve(r.app);
    const llamp::graph::Graph& g = graph(res.app);
    const llamp::topo::FatTree ft(r.ft_radix);
    if (ft.nnodes() < res.app.ranks) throw Error(ft.name() + " is too small");
    core::WireCost wire;
    wire.l_wire = r.l_wire;
    wire.d_switch = r.d_switch;
    core::PlacementResult block, volume, opt;
    {
      const obs::SpanScope span(tracer_, "core.placement.block");
      block = core::block_placement(g, res.app.params, ft, wire);
    }
    {
      const obs::SpanScope span(tracer_, "core.placement.volume");
      volume = core::volume_greedy_placement(g, res.app.params, ft, wire);
    }
    {
      const obs::SpanScope span(tracer_, "core.placement.optimize");
      opt = core::optimize_placement(g, res.app.params, ft, wire, {}, r.max_rounds);
    }
    res.topology = ft.name();
    res.strategies.push_back({"block (default)", block.predicted_runtime});
    res.strategies.push_back({"volume-greedy", volume.predicted_runtime});
    res.strategies.push_back(
        {strformat("llamp algorithm 3 (%d swaps)", opt.swaps), opt.predicted_runtime});
    return api::Response(std::move(res));
  };

  const auto campaign = [&](const api::CampaignRequest& r) {
    // The benchmark only generates single-preset campaigns without override
    // axes, probes or S overrides; api::Engine's variant expansion reduces
    // to this one variant for them.
    if (r.nets != std::vector<std::string>{"cscs"} || !r.L_list.empty() ||
        !r.o_list.empty() || !r.G_list.empty() || r.S || !r.probe.empty()) {
      throw UsageError("perfbench walks single-variant campaigns only");
    }
    core::CampaignSpec spec;
    spec.apps = r.apps;
    spec.ranks = r.ranks;
    spec.scales = r.scales;
    spec.topologies = r.topologies;
    core::ConfigVariant variant;
    variant.name = "cscs";
    variant.params = llamp::loggops::NetworkConfig::cscs_testbed();
    spec.configs = {variant};
    spec.delta_Ls = core::linear_grid(llamp::us(r.grid.dl_max_us), r.grid.points);
    spec.threads = r.threads;
    spec.topo = r.topo;
    spec.mc.samples = r.mc_samples;
    spec.mc.seed = r.seed;
    spec.mc.sigma_L = r.mc_sigma_L;
    spec.mc.sigma_o = r.mc_sigma_o;
    spec.mc.sigma_G = r.mc_sigma_G;
    spec.mc.noise.sigma = r.mc_edge_sigma;
    spec.mc.noise.bias = r.mc_edge_bias;
    core::Campaign c(spec);
    api::CampaignResult res;
    {
      const obs::SpanScope span(tracer_, "core.campaign.run");
      res.results = c.run({}, graphs_, solvers_);
    }
    res.scenarios = c.stats().scenarios_run;
    res.delta_points = spec.delta_Ls.size();
    res.distinct_graphs = c.stats().graphs_built;
    res.has_probe = false;
    // The campaign filled both caches; later lookups of its scenarios are hits.
    for (const core::Campaign::ScenarioResult& sr : res.results) {
      const core::GraphKey key{sr.scenario.app, sr.scenario.ranks,
                               sr.scenario.scale, sr.scenario.params.S};
      seen_graphs_.insert(key);
      seen_solvers_.insert(fingerprint(key, sr.scenario.params));
    }
    return api::Response(std::move(res));
  };

  {
    const obs::SpanScope request(tracer_, root);
    std::string body = item.body;
    if (wire_) {
      const std::string framed = http_frame(item);
      const obs::SpanScope span(tracer_, "serve.http_parse");
      llamp::serve::ParseResult pr =
          llamp::serve::parse_http_request(framed, llamp::serve::HttpLimits{});
      if (pr.status != llamp::serve::ParseResult::Status::kRequest) {
        throw Error("serve.http_parse rejected a generated request");
      }
      body = std::move(pr.request.body);
    }
    api::Request req;
    {
      const obs::SpanScope span(tracer_, "api.request_parse");
      req = api::parse_request_for_op(item.op, body);
    }
    struct Dispatch {
      decltype(analyze)& a;
      decltype(sweep)& s;
      decltype(campaign)& c;
      decltype(mc)& m;
      decltype(topo)& t;
      decltype(place)& p;
      api::Response operator()(const api::AnalyzeRequest& r) { return a(r); }
      api::Response operator()(const api::SweepRequest& r) { return s(r); }
      api::Response operator()(const api::CampaignRequest& r) { return c(r); }
      api::Response operator()(const api::McRequest& r) { return m(r); }
      api::Response operator()(const api::TopoRequest& r) { return t(r); }
      api::Response operator()(const api::PlaceRequest& r) { return p(r); }
    };
    const api::Response res =
        std::visit(Dispatch{analyze, sweep, campaign, mc, topo, place}, req);
    {
      const obs::SpanScope span(tracer_, "api.json_emit");
      line = api::to_json_line(res);
    }
    if (wire_) {
      const obs::SpanScope span(tracer_, "serve.http_serialize");
      llamp::serve::HttpResponse hr;
      hr.body = line + '\n';
      g_sink = g_sink + static_cast<double>(llamp::serve::serialize_response(hr).size());
    }
  }

  return line;
}

void LayerWalker::probe() {
  if (!tracer_.enabled()) return;
  for (const auto& [key, params] : pending_.built) {
    const obs::SpanScope probe(tracer_, "probe");
    std::optional<llamp::trace::Trace> trace;
    {
      const obs::SpanScope span(tracer_, "apps.trace");
      trace.emplace(llamp::apps::make_app_trace(key.app, key.ranks, key.scale));
    }
    std::optional<llamp::graph::Graph> rebuilt;
    {
      const obs::SpanScope span(tracer_, "schedgen.build");
      llamp::schedgen::Options opt;
      opt.rendezvous_threshold = key.S;
      rebuilt.emplace(llamp::schedgen::build_graph(*trace, opt));
    }
    probe_graphs_.emplace_back(rebuilt->num_vertices(), rebuilt->num_edges());
    const llamp::graph::Graph& g = graphs_.get(key);
    const auto problem = solvers_.latency(key, g, params)->problem();
    for (int rep = 0; rep < 3; ++rep) {
      const obs::SpanScope span(tracer_, "lp.dense_solve");
      g_sink = g_sink + problem->solve(0, params.L, cursor_).value;
    }
  }
  if (pending_.mc && speedup_done_.insert(pending_.body).second) {
    Pending::Mc& m = *pending_.mc;
    const obs::SpanScope probe(tracer_, "probe");
    m.spec.threads = 1;
    {
      const obs::SpanScope span(tracer_, "stoch.run_mc.t1");
      g_sink = g_sink + llamp::stoch::run_mc(*m.g, m.params, m.spec, m.lowered).lambda_L.mean();
    }
    m.spec.threads = 2;
    {
      const obs::SpanScope span(tracer_, "stoch.run_mc.t2");
      g_sink = g_sink + llamp::stoch::run_mc(*m.g, m.params, m.spec, m.lowered).lambda_L.mean();
    }
  }
  pending_ = Pending{};
}

TraceSummary summarize_trace(const std::string& chrome_json, std::string& annotated) {
  struct Ev {
    std::string name;
    int tid = 0;
    double ts = 0.0;
    double dur = 0.0;
    long long parent = -1;  // index within the same tid
  };
  const llamp::JsonValue doc = llamp::JsonValue::parse(chrome_json);
  std::vector<Ev> evs;
  std::map<int, std::vector<std::size_t>> by_tid;  // lane-local index -> global
  for (const llamp::JsonValue& e : doc.find("traceEvents")->as_array("traceEvents")) {
    Ev ev;
    ev.name = e.find("name")->as_string("name");
    ev.tid = static_cast<int>(e.find("tid")->as_number("tid"));
    ev.ts = e.find("ts")->as_number("ts");
    ev.dur = e.find("dur")->as_number("dur");
    ev.parent = static_cast<long long>(e.find("args")->find("parent")->as_number("parent"));
    by_tid[ev.tid].push_back(evs.size());
    evs.push_back(std::move(ev));
  }
  // Resolve lane-local parent indices to global ones.
  std::vector<long long> parent(evs.size(), -1);
  for (const auto& [tid, lane] : by_tid) {
    for (const std::size_t gi : lane) {
      const long long p = evs[gi].parent;
      if (p >= 0 && static_cast<std::size_t>(p) < lane.size()) {
        parent[gi] = static_cast<long long>(lane[static_cast<std::size_t>(p)]);
      }
    }
  }
  // Parents precede children within a lane, so one forward pass assigns
  // root ids; a second accumulates child time for self times.
  std::vector<long long> root_id(evs.size(), -1);
  std::vector<std::size_t> root_of(evs.size(), 0);
  std::vector<double> child_us(evs.size(), 0.0);
  long long next_root = 0;
  for (const auto& [tid, lane] : by_tid) {
    for (const std::size_t gi : lane) {
      if (parent[gi] < 0) {
        root_id[gi] = next_root++;
        root_of[gi] = gi;
      } else {
        const auto p = static_cast<std::size_t>(parent[gi]);
        root_id[gi] = root_id[p];
        root_of[gi] = root_of[p];
        child_us[p] += evs[gi].dur;
      }
    }
  }
  TraceSummary sum;
  sum.spans = evs.size();
  annotated = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Ev& ev = evs[i];
    sum.dur_ms[ev.name].push_back(ev.dur / 1e3);
    const std::string& root = evs[root_of[i]].name;
    if (root == "request") {
      if (parent[i] < 0) {
        sum.request_ms.push_back(ev.dur / 1e3);
      } else {
        sum.self_ms[ev.name] += std::max(0.0, ev.dur - child_us[i]) / 1e3;
      }
    }
    annotated += strformat(
        "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %lld, "
        "\"req\": %lld}}",
        i == 0 ? "" : ", ", llamp::json_escape_string(ev.name).c_str(),
        llamp::json_escape_string(root).c_str(), ev.tid, ev.ts, ev.dur,
        ev.parent, root_id[i]);
  }
  annotated += "], \"displayTimeUnit\": \"ms\"}\n";
  return sum;
}

}  // namespace perfbench
