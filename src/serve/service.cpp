#include "serve/service.hpp"

#include <string>
#include <string_view>
#include <utility>

#include "api/request.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::serve {
namespace {

/// One /v1/* analysis handler: parse the body against the op named by the
/// path, run it on the engine, serve the canonical result line.  Runs on
/// the server's executor thread, so requests run one at a time.
HttpResponse run_op(api::Engine& engine, std::string_view op,
                    const HttpRequest& req) {
  HttpResponse res;
  try {
    const api::Request parsed = api::parse_request_for_op(op, req.body);
    res.body = api::to_json_line(engine.run(parsed)) + '\n';
  } catch (const UsageError& e) {
    res.status = 400;
    res.body = error_body("usage", e.what());
  } catch (const Error& e) {
    // Analysis failures (unknown app, infeasible model) are request
    // problems too: the daemon stays up and tells the client in-band.
    res.status = 400;
    res.body = error_body("analysis", e.what());
  }
  return res;
}

std::string healthz_body(const api::Engine& engine) {
  const BuildInfo& b = build_info();
  const core::GraphCache::Stats gc = engine.cache_stats();
  const core::SolverCache::Stats sc = engine.solver_cache_stats();
  std::string out = "{\"status\": \"ok\"";
  out += ", \"version\": \"" + json_escape_string(b.version) + "\"";
  out += ", \"compiler\": \"" + json_escape_string(b.compiler) + "\"";
  out += ", \"build_type\": \"" + json_escape_string(b.build_type) + "\"";
  out += strformat(", \"uptime_ns\": %llu",
                   static_cast<unsigned long long>(engine.uptime_ns()));
  out += strformat(
      ", \"graph_cache\": {\"built\": %zu, \"hits\": %zu, \"bytes\": %zu}",
      gc.built, gc.hits, gc.bytes);
  out += strformat(
      ", \"solver_cache\": {\"built\": %zu, \"hits\": %zu, "
      "\"anchor_solves\": %zu, \"replays\": %zu, \"anchor_bytes\": %zu, "
      "\"memo_hits\": %zu, \"memo_misses\": %zu, \"memo_bytes\": %zu}",
      sc.built, sc.hits, sc.anchor_solves, sc.replays, sc.anchor_bytes,
      sc.memo_hits, sc.memo_misses, sc.memo_bytes);
  out += "}\n";
  return out;
}

}  // namespace

std::vector<Server::Route> engine_routes(api::Engine& engine) {
  std::vector<Server::Route> routes;
  for (const std::string_view op : api::kOpNames) {
    Server::Route r;
    r.method = "POST";
    r.path = "/v1/" + std::string(op);
    r.dispatch = Server::Dispatch::kQueued;
    r.handler = [&engine, op](const HttpRequest& req) {
      return run_op(engine, op, req);
    };
    routes.push_back(std::move(r));
  }
  {
    Server::Route r;
    r.method = "GET";
    r.path = "/healthz";
    r.dispatch = Server::Dispatch::kInline;
    r.handler = [&engine](const HttpRequest&) {
      HttpResponse res;
      res.body = healthz_body(engine);
      return res;
    };
    routes.push_back(std::move(r));
  }
  {
    Server::Route r;
    r.method = "GET";
    r.path = "/metrics";
    r.dispatch = Server::Dispatch::kInline;
    r.handler = [&engine](const HttpRequest&) {
      HttpResponse res;
      res.body = engine.metrics_json() + '\n';
      return res;
    };
    routes.push_back(std::move(r));
  }
  return routes;
}

}  // namespace llamp::serve
