#include "serve/service.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <memory>
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

/// Hands the heap that cold work freed back to the OS once the daemon is
/// warm again.  Cold requests free large scratch (16-lane cursor rows,
/// transient topo and place lowerings) that glibc keeps resident once its
/// mmap threshold has grown past them.  A trim inside a cold burst would
/// make the next cold request fault those pages in again, so it waits for
/// kWarmRun requests in a row that computed nothing; warming
/// serve-warm-mix's working set never serves more than five.  Only the
/// executor thread calls it, one request at a time.
class HeapTrim {
 public:
  void after_request(const api::Engine& engine) {
    const core::SolverCache::Stats sc = engine.solver_cache_stats();
    const std::size_t misses = engine.cache_stats().built + sc.built +
                               sc.anchor_solves + sc.memo_misses;
    if (misses != misses_) {
      misses_ = misses;
      warm_ = 0;
      pending_ = true;
      return;
    }
    if (!pending_ || ++warm_ < kWarmRun) return;
    pending_ = false;
#if defined(__GLIBC__)
    (void)malloc_trim(0);
#endif
  }

 private:
  static constexpr int kWarmRun = 16;
  std::size_t misses_ = 0;
  int warm_ = 0;
  bool pending_ = false;
};

/// One /v1/* analysis handler: parse the body against the op named by the
/// path, run it on the engine, serve the canonical result line.  Runs on
/// the server's executor thread, so requests run one at a time.
HttpResponse run_op(api::Engine& engine, std::string_view op,
                    const HttpRequest& req, HeapTrim& trim) {
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
  trim.after_request(engine);
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
  out += ", \"solver_cache\": {";
  const char* sep = "";
  for (const auto& [name, v] : sc.fields()) {
    out += strformat("%s\"%s\": %llu", sep, name.c_str(),
                     static_cast<unsigned long long>(v));
    sep = ", ";
  }
  out += "}}\n";
  return out;
}

}  // namespace

std::vector<Server::Route> engine_routes(api::Engine& engine) {
  std::vector<Server::Route> routes;
  const auto trim = std::make_shared<HeapTrim>();
  for (const std::string_view op : api::kOpNames) {
    Server::Route r;
    r.method = "POST";
    r.path = "/v1/" + std::string(op);
    r.dispatch = Server::Dispatch::kQueued;
    r.handler = [&engine, op, trim](const HttpRequest& req) {
      return run_op(engine, op, req, *trim);
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
