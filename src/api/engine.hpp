#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/request.hpp"
#include "core/campaign.hpp"
#include "core/graph_cache.hpp"
#include "core/report.hpp"
#include "core/solver_cache.hpp"
#include "loggops/params.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stoch/mc.hpp"
#include "util/time.hpp"

namespace llamp::api {

/// Typed results, one per request type.  Each result is a value: it owns
/// every number the corresponding CLI subcommand prints, `render()`
/// reproduces that subcommand's output byte-for-byte (the PR 2 golden wall
/// passes unchanged with the CLI routed through here), and
/// `to_json_line()` is the single-line machine form served over the JSONL
/// batch surface.

/// The app block after execution-time resolution (ranks clamped to an
/// app-supported value, LogGPS preset + Table II overhead + overrides
/// applied).
struct ResolvedApp {
  std::string app;
  int ranks = 0;
  double scale = 0.0;
  loggops::Params params;
};

struct AnalyzeResult {
  ResolvedApp app;
  std::string graph_stats;  ///< Graph::stats_string() of the analyzed graph
  core::ToleranceReport report;

  void render(core::OutputFormat format, std::ostream& out) const;
  std::string to_json_line() const;
};

struct SweepResult {
  ResolvedApp app;
  TimeNs base_runtime = 0.0;
  std::vector<core::LatencyAnalyzer::SweepPoint> points;

  void render(core::OutputFormat format, std::ostream& out) const;
  std::string to_json_line() const;
};

struct CampaignResult {
  std::size_t scenarios = 0;
  std::size_t delta_points = 0;     ///< ΔL grid size
  std::size_t distinct_graphs = 0;  ///< distinct graph keys in the grid
  bool has_probe = false;
  std::vector<core::Campaign::ScenarioResult> results;

  void render(core::OutputFormat format, std::ostream& out) const;
  std::string to_json_line() const;
};

struct McResult {
  ResolvedApp app;
  stoch::McSpec spec;  ///< resolved distributions / seed / samples echo
  stoch::McResult result;

  void render(core::OutputFormat format, std::ostream& out) const;
  std::string to_json_line() const;
};

struct TopoResult {
  ResolvedApp app;
  struct Sensitivity {
    std::string name;
    double runtime = 0.0;    ///< T(l_wire) [ns]
    double gradient = 0.0;   ///< dT/dl_wire
    double tolerance = 0.0;  ///< 1% l_wire tolerance; +inf = unbounded
  };
  std::vector<Sensitivity> topologies;
  double df_base_runtime = 0.0;
  struct WireClass {
    std::string name;
    double lambda = 0.0;
    double tolerance = 0.0;
  };
  std::vector<WireClass> classes;  ///< Dragonfly per-class breakdown

  /// Table is the CLI form; json renders the machine schema; csv is not
  /// offered for the two-table topo report (UsageError).
  void render(core::OutputFormat format, std::ostream& out) const;
  std::string to_json_line() const;
};

struct PlaceResult {
  ResolvedApp app;
  std::string topology;  ///< the Fat Tree's display name
  struct Strategy {
    std::string name;  ///< display label, e.g. "llamp algorithm 3 (4 swaps)"
    double runtime = 0.0;
  };
  std::vector<Strategy> strategies;  ///< block baseline first

  void render(core::OutputFormat format, std::ostream& out) const;
  std::string to_json_line() const;
};

using Response = std::variant<AnalyzeResult, SweepResult, CampaignResult,
                              McResult, TopoResult, PlaceResult>;

/// Dispatch render over the variant.
void render(const Response& res, core::OutputFormat format, std::ostream& out);
/// Dispatch to_json_line over the variant.
std::string to_json_line(const Response& res);

/// The session engine behind every consumer of the toolchain: the CLI
/// subcommands, `llamp batch`, the benches, and library callers all
/// execute requests through one of these.  An engine owns
///
///  * the execution-graph cache, keyed (app, ranks, scale, S) like the
///    campaign engine's — repeated requests for one scenario re-lower
///    nothing, across request types (an analyze warms the graph a later
///    sweep or campaign of the same app reuses); and
///  * the solver cache beside it (lowered problems, anchors, memos).
///
/// Execution is deterministic: a result's bytes depend only on the
/// request, never on the cache's prior contents or the thread count (the
/// campaign header's "distinct graphs" deliberately counts the grid's
/// keys, not physical builds).
///
/// Thread-safety: both caches, the metrics registry and the tracer are
/// safe under concurrent use, and a request keeps all other mutable state
/// (solve cursors, scratch) local to its own execution — so requests
/// (run(), the typed methods, run_batch()) may be issued from several
/// threads at once.  run_batch() fans its requests out over util/parallel
/// workers started per call.
class Engine {
 public:
  struct Options {
    /// Caps run_batch()'s fan-out, whatever the batch asks for; <= 0
    /// leaves it to run_batch's own `threads`.
    int threads = 0;
  };
  Engine();
  explicit Engine(Options opts);

  /// Execute one request.  Throws UsageError on malformed requests (the
  /// CLI's exit-2 class) and Error on analysis failures (exit 1).
  AnalyzeResult analyze(const AnalyzeRequest& req);
  SweepResult sweep(const SweepRequest& req);
  CampaignResult campaign(const CampaignRequest& req);
  McResult mc(const McRequest& req);
  TopoResult topo(const TopoRequest& req);
  PlaceResult place(const PlaceRequest& req);

  /// Variant dispatch of the above.
  Response run(const Request& req);

  /// Execute a batch on at most `threads` workers (<= 0 = hardware
  /// concurrency; Options::threads caps either).  outcomes[i] holds request
  /// i's response or its error; order is input order whatever the thread
  /// count.
  struct Outcome {
    std::optional<Response> response;  ///< engaged on success
    std::string error;                 ///< non-empty on failure
    bool usage_error = false;          ///< UsageError vs analysis Error
    TimeNs elapsed_ns = 0.0;           ///< wall time of this request
  };
  std::vector<Outcome> run_batch(const std::vector<Request>& requests,
                                 int threads);

  /// Cumulative graph-cache statistics of this session.
  core::GraphCache::Stats cache_stats() const { return cache_.stats(); }
  /// Cumulative solver-cache statistics (lowerings + anchor replays).
  core::SolverCache::Stats solver_cache_stats() const {
    return solver_cache_.stats();
  }
  /// One-line human form of solver_cache_stats().
  std::string solver_cache_stats_string() const {
    return solver_cache_.stats_string();
  }

  // -- Observability (DESIGN.md §7).  Metrics and traces are side channels:
  // they never feed result bytes (the metrics-on-vs-off byte-identity tests
  // pin this), and the deterministic slices — counter values, snapshot
  // structure — are themselves pinned for a fixed request sequence.

  /// The session metrics registry.  Callers may register their own
  /// counters at setup time (the JSONL surface counts parse errors here);
  /// registration inside hot paths is rejected by llamp-lint.
  obs::Registry& metrics() { return metrics_; }
  /// The session tracer.  Disabled (and nearly free) until enable();
  /// the CLI's --trace-out flag enables it before dispatch.
  obs::Tracer& tracer() { return tracer_; }

  /// Merged metrics snapshot as canonical single-line JSON — the payload
  /// /metrics serves.  Includes both caches' statistics as imported
  /// counters/gauges.
  std::string metrics_json() const;
  /// Human multi-line form of the same snapshot (`llamp stats`).
  std::string metrics_string() const;
  /// The recorded trace in Chrome trace-event JSON form (--trace-out).
  std::string trace_json() const { return tracer_.to_chrome_json(); }

  /// Nanoseconds since this engine was constructed (monotonic clock).
  /// Feeds /healthz and the engine.uptime_ns snapshot gauge — a timing
  /// value, so it never appears in result bytes.
  std::uint64_t uptime_ns() const;

 private:
  static core::GraphKey key_for(const ResolvedApp& app);
  const graph::Graph& graph_for(const ResolvedApp& app);

  /// Uninstrumented request bodies (the public methods wrap these in
  /// timed(), so each request is counted and traced exactly once —
  /// including requests run_batch dispatches through run()).
  AnalyzeResult execute(const AnalyzeRequest& req);
  SweepResult execute(const SweepRequest& req);
  CampaignResult execute(const CampaignRequest& req);
  McResult execute(const McRequest& req);
  TopoResult execute(const TopoRequest& req);
  PlaceResult execute(const PlaceRequest& req);

  /// The shared request wrapper: span + latency histogram + request/error/
  /// per-op counters around one execute() call.  Defined in engine.cpp
  /// (every use lives there).
  template <typename R>
  auto timed(const R& req);

  /// Registry + imported cache statistics, merged name-sorted.
  obs::Snapshot metrics_snapshot() const;

  /// Pre-registered handles (one array-indexed relaxed add per record on
  /// the hot paths; see the registry's contract split).
  struct MetricHandles {
    obs::Counter requests;          ///< engine.requests
    obs::Counter errors;            ///< engine.errors
    /// engine.op.<name>, indexed like kOpNames
    std::array<obs::Counter, kOpNames.size()> ops;
    obs::Histogram request_ns;      ///< engine.request_ns
    obs::Counter batches;           ///< batch.batches (run_batch calls)
    obs::Counter batch_requests;    ///< batch.requests
    obs::Histogram batch_request_ns;  ///< per-request latency in a batch
    obs::Counter mc_fast_path;      ///< mc.fast_path (shared-solver route)
    obs::Counter mc_general_path;   ///< mc.general_path (edge-noise route)
    obs::Counter mc_batched;        ///< mc.batched_runs (SIMD kernel ran)
    obs::Counter mc_lane_groups;    ///< mc.lane_groups (sample groups)
    obs::Counter mc_lane_slots;     ///< mc.lane_slots (groups x width)
    obs::Counter mc_lane_samples;   ///< mc.lane_samples (occupied slots)
  };

  core::GraphCache cache_;
  /// Lowered solvers + anchor state, keyed (graph key, space fingerprint)
  /// beside the graph cache.  Declared after cache_ (and therefore
  /// destroyed first): entries reference session graphs.
  core::SolverCache solver_cache_;
  obs::Registry metrics_;
  obs::Tracer tracer_;
  MetricHandles handles_;
  /// Options::threads: run_batch's fan-out cap (<= 0 = none).
  int max_batch_threads_ = 0;
  /// Construction instant (uptime_ns's zero point).
  TimeNs start_time_ = 0.0;
  /// Scrape sequence: bumped once per metrics_snapshot(), so consumers of
  /// /metrics can order scrapes and detect a daemon restart (the number
  /// resets to 1).  Mutable: taking a snapshot is logically const.
  mutable std::atomic<std::uint64_t> metrics_seq_{0};
};

}  // namespace llamp::api
