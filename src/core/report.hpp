#pragma once

#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "graph/graph.hpp"
#include "loggops/params.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"

namespace llamp::core {

/// Output formats shared by every grid-emitting surface (`llamp analyze`,
/// `sweep`, `campaign`, and the bench harnesses).  Keeping the renderers in
/// one place is what lets the golden-output tests pin formatting once for
/// all of them.
enum class OutputFormat {
  kTable,  ///< aligned human-readable columns (util/table.hpp)
  kCsv,    ///< comma-separated, header row first
  kJson,   ///< array of row objects keyed by header name
};

/// Parse "table" / "csv" / "json"; throws UsageError otherwise.
OutputFormat parse_output_format(const std::string& name);

/// Render a table in the requested format.  The JSON renderer emits one
/// object per row keyed by header name; cells the number writer produced
/// from finite values are emitted unquoted, everything else as a JSON
/// string.
std::string render(const Table& table, OutputFormat format);

/// The JSON rendering of a table as one physical line (no trailing
/// newline): `[{"k": v, ...}, ...]` with the same cell typing rules as
/// render(kJson).  This is the row payload of the api layer's JSONL batch
/// responses, where one result must occupy exactly one line.
std::string render_json_line(const Table& table);

/// The ΔL-sweep curve as a table, shared by `llamp sweep`, the analyze
/// report, and the campaign emitters.  `human` selects report formatting
/// (adaptive time units, a slowdown column vs `base_runtime`); otherwise
/// the numeric CSV/JSON schema (delta_l_ns, runtime_ns, lambda_l, rho_l).
Table sweep_curve_table(const std::vector<LatencyAnalyzer::SweepPoint>& curve,
                        TimeNs base_runtime, bool human);

/// One-call "what does LLAMP say about this application" summary: the
/// consolidated output of the toolchain (runtime forecast curve, λ_L/ρ_L,
/// tolerance bands, critical latencies, bandwidth sensitivity), rendered as
/// a report table.  This is what the trace_analyze CLI prints and what a
/// user skimming a single application wants first.
struct ToleranceReport {
  loggops::Params params;
  TimeNs base_runtime = 0.0;
  double lambda_L_base = 0.0;
  double lambda_G = 0.0;

  struct Band {
    double percent = 0.0;
    TimeNs tolerance_delta = 0.0;  ///< +inf when latency never binds
  };
  std::vector<Band> bands;  // 1% / 2% / 5% by default

  std::vector<LatencyAnalyzer::SweepPoint> curve;
  std::vector<TimeNs> critical_latencies;  ///< within the sweep window

  std::string to_string() const;
  /// The whole report as one JSON object (params, base runtime, λ_L/λ_G,
  /// tolerance bands, forecast curve, critical latencies).  Unbounded
  /// tolerances serialize as null.
  std::string to_json() const;
  /// Same object compacted onto one physical line without a trailing
  /// newline (the JSONL batch payload form).
  std::string to_json_line() const;
};

struct ReportOptions {
  TimeNs sweep_max = 100'000.0;  ///< ΔL ceiling of the forecast curve
  int sweep_points = 11;
  std::vector<double> band_percents = {1.0, 2.0, 5.0};
  /// Cap on critical latencies listed (application graphs can have many).
  std::size_t max_critical = 16;
  int threads = 0;  ///< sweep parallelism; <= 0 = hardware concurrency
};

/// Analyze a prepared execution graph.
ToleranceReport make_report(const graph::Graph& g, const loggops::Params& p,
                            const ReportOptions& opts = {});

/// Same report over a caller-constructed analyzer (the api::Engine path:
/// a warm-starting analyzer wired to the session's SolverCache).  The
/// emitted bytes are identical to the graph+params form — the analyzer's
/// construction mode can never change them.
ToleranceReport make_report(const LatencyAnalyzer& an,
                            const ReportOptions& opts = {});

}  // namespace llamp::core
