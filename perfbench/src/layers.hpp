#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "core/graph_cache.hpp"
#include "core/solver_cache.hpp"
#include "lp/parametric.hpp"
#include "obs/trace.hpp"
#include "stoch/mc.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Executes requests through the layers' public functions one call at a
/// time, in the order api::Engine makes them, each call inside an
/// obs::SpanScope — the traced run's way of splitting a request's time by
/// layer without any instrumentation inside src/.  Its response bytes must
/// equal api::to_json_line(Engine::run(request)); the benchmark checks this
/// for every request it walks.
///
/// Span tree of one request (root "request"; see README.md for the layers):
///   serve.http_parse, api.request_parse,
///   core.graph_cache.get | core.graph_cache.build,
///   core.solver_cache.lookup | lp.lower,
///   core.report.{base,lambda_G,tolerance,sweep,critical} | stoch.run_mc |
///   core.placement.{block,volume,optimize} | core.campaign.run |
///   topo.sensitivity,
///   api.json_emit, serve.http_serialize.
/// probe() then splits each graph-cache miss into its layers and measures
/// the mc sample loop's thread scaling, outside the request's time.
class LayerWalker {
 public:
  /// `wire` adds the serve layer's parse/serialize calls around each request.
  LayerWalker(llamp::obs::Tracer& tracer, bool wire);

  /// Run one item; returns the response line (to_json_line, no newline).
  /// `root` names the request's root span ("request", or "setup" for
  /// cache warm-up that must not count as a measured request).
  std::string run(const Item& item, const char* root = "request");

  /// With tracing on, the probes of the last run(): re-generate each graph
  /// it built (apps.trace, schedgen.build, lp.dense_solve) and, once per
  /// distinct mc body, re-run the sample loop at 1 and 2 threads — all under
  /// a "probe" root.  Call outside the request's timing.
  void probe();

  /// Graph size of every request run so far, in order.
  const std::vector<std::pair<std::size_t, std::size_t>>& request_graphs() const {
    return request_graphs_;
  }
  /// (vertices, edges) of each probe, aligned with the "probe" roots that
  /// carry apps.trace/schedgen.build/lp.dense_solve.
  const std::vector<std::pair<std::size_t, std::size_t>>& probe_graphs() const {
    return probe_graphs_;
  }

 private:
  /// What run() leaves for probe().
  struct Pending {
    std::string body;
    std::vector<std::pair<llamp::core::GraphKey, llamp::loggops::Params>> built;
    struct Mc {
      const llamp::graph::Graph* g = nullptr;
      llamp::loggops::Params params;
      llamp::stoch::McSpec spec;
      std::shared_ptr<const llamp::lp::LoweredProblem> lowered;
    };
    std::optional<Mc> mc;
  };

  llamp::obs::Tracer& tracer_;
  bool wire_;
  Pending pending_;
  llamp::core::GraphCache graphs_;
  llamp::core::SolverCache solvers_;
  llamp::api::Engine topo_engine_;
  llamp::lp::LoweredProblem::Cursor cursor_;
  std::set<llamp::core::GraphKey> seen_graphs_;
  std::set<std::string> seen_solvers_;
  std::set<std::string> speedup_done_;
  std::vector<std::pair<std::size_t, std::size_t>> request_graphs_;
  std::vector<std::pair<std::size_t, std::size_t>> probe_graphs_;
};

/// Per-span-name aggregates of one traced phase, from the tracer's Chrome
/// JSON.  Self time = a span's duration minus its children's.
struct TraceSummary {
  std::map<std::string, std::vector<double>> dur_ms;  ///< every span, by name
  std::map<std::string, double> self_ms;  ///< Σ self time inside "request" trees
  std::vector<double> request_ms;         ///< "request" root durations
  std::size_t spans = 0;
};

/// Summarize `chrome_json` (obs::Tracer::to_chrome_json) and return the same
/// trace with every event's args extended by "req": the ordinal of the
/// request (or probe/setup root) it belongs to, so all spans of one request
/// share an id.
TraceSummary summarize_trace(const std::string& chrome_json,
                             std::string& annotated);

}  // namespace perfbench
