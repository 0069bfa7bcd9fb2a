#include "core/report.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "core/campaign.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace llamp::core {

OutputFormat parse_output_format(const std::string& name) {
  if (name == "table") return OutputFormat::kTable;
  if (name == "csv") return OutputFormat::kCsv;
  if (name == "json") return OutputFormat::kJson;
  throw UsageError("unknown --format '" + name +
                   "' (want table, csv, or json)");
}

std::string json_escape(const std::string& s) { return json_escape_string(s); }

namespace {

/// A cell is emitted as a bare JSON number iff strtod consumes it entirely
/// and the value is finite ("inf" and "unbounded" stay strings).
bool is_json_number(const std::string& cell) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  return end == cell.c_str() + cell.size() && std::isfinite(v);
}

void row_to_json(std::ostringstream& os, const Table& t,
                 const std::vector<std::string>& row) {
  os << '{';
  for (std::size_t c = 0; c < row.size(); ++c) {
    os << '"' << json_escape(t.headers()[c]) << "\": ";
    if (is_json_number(row[c])) {
      os << row[c];
    } else {
      os << '"' << json_escape(row[c]) << '"';
    }
    if (c + 1 < row.size()) os << ", ";
  }
  os << '}';
}

std::string to_json_rows(const Table& t) {
  std::ostringstream os;
  os << "[\n";
  const auto& rows = t.data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << "  ";
    row_to_json(os, t, rows[r]);
    os << (r + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return os.str();
}

}  // namespace

std::string render(const Table& table, OutputFormat format) {
  switch (format) {
    case OutputFormat::kTable: return table.to_string();
    case OutputFormat::kCsv: return table.to_csv();
    case OutputFormat::kJson: return to_json_rows(table);
  }
  throw Error("render: bad format");
}

std::string render_json_line(const Table& table) {
  std::ostringstream os;
  os << '[';
  const auto& rows = table.data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_to_json(os, table, rows[r]);
    if (r + 1 < rows.size()) os << ", ";
  }
  os << ']';
  return os.str();
}

Table sweep_curve_table(const std::vector<LatencyAnalyzer::SweepPoint>& curve,
                        TimeNs base_runtime, bool human) {
  Table t(human ? std::vector<std::string>{"ΔL", "T(ΔL)", "slowdown",
                                           "lambda_L", "rho_L"}
                : std::vector<std::string>{"delta_l_ns", "runtime_ns",
                                           "lambda_l", "rho_l"});
  for (const auto& pt : curve) {
    if (human) {
      t.add_row({human_time_ns(pt.delta_L), human_time_ns(pt.runtime),
                 strformat("%+.2f%%", 100.0 * (pt.runtime / base_runtime - 1.0)),
                 strformat("%.0f", pt.lambda_L),
                 strformat("%.1f%%", 100.0 * pt.rho_L)});
    } else {
      t.add_row({strformat("%.1f", pt.delta_L), strformat("%.1f", pt.runtime),
                 strformat("%.6g", pt.lambda_L),
                 strformat("%.6g", pt.rho_L)});
    }
  }
  return t;
}

ToleranceReport make_report(const graph::Graph& g, const loggops::Params& p,
                            const ReportOptions& opts) {
  const LatencyAnalyzer an(g, p);
  return make_report(an, opts);
}

ToleranceReport make_report(const LatencyAnalyzer& an,
                            const ReportOptions& opts) {
  if (opts.sweep_points < 2) throw Error("report: need >= 2 sweep points");
  const loggops::Params& p = an.params();
  ToleranceReport rep;
  rep.params = p;
  rep.base_runtime = an.base_runtime();
  rep.lambda_L_base = an.lambda_L();
  rep.lambda_G = an.lambda_G();
  for (const double pct : opts.band_percents) {
    rep.bands.push_back({pct, an.tolerance_delta(pct)});
  }
  rep.curve =
      an.sweep(linear_grid(opts.sweep_max, opts.sweep_points), opts.threads);
  // Application graphs can have thousands of basis changes; bound the scan
  // with Algorithm 2's step knob at the resolution a report can display.
  const double step =
      opts.sweep_max / (4.0 * static_cast<double>(opts.max_critical));
  rep.critical_latencies =
      an.critical_latencies_algorithm2(p.L, p.L + opts.sweep_max, step);
  if (rep.critical_latencies.size() > opts.max_critical) {
    rep.critical_latencies.resize(opts.max_critical);
  }
  return rep;
}

std::string ToleranceReport::to_string() const {
  std::ostringstream os;
  os << "network: " << params.to_string() << '\n';
  os << strformat("base runtime T(L): %s   lambda_L: %.0f   lambda_G: %.0f "
                  "bytes\n",
                  human_time_ns(base_runtime).c_str(), lambda_L_base,
                  lambda_G);
  os << "latency tolerance (max ΔL before x% degradation):";
  for (const Band& b : bands) {
    os << strformat("  %.0f%%: %s", b.percent,
                    std::isfinite(b.tolerance_delta)
                        ? human_time_ns(b.tolerance_delta).c_str()
                        : "unbounded");
  }
  os << '\n';
  os << sweep_curve_table(curve, base_runtime, /*human=*/true).to_string();
  if (!critical_latencies.empty()) {
    os << "critical latencies (lambda changes):";
    for (const TimeNs c : critical_latencies) {
      os << ' ' << human_time_ns(c);
    }
    os << '\n';
  }
  return os.str();
}

namespace {

/// One serializer behind both to_json layouts: `pretty` selects the
/// one-member-per-line form the CLI has always emitted (those bytes are
/// golden-pinned); compact packs the identical members onto one line for
/// JSONL payloads.
std::string report_json(const ToleranceReport& rep, bool pretty) {
  // Non-finite values must never leak as bare "inf"/"nan" tokens — those
  // are not JSON.  Finite values keep the historical %.10g bytes.
  const auto num = [](double v) {
    return std::isfinite(v) ? strformat("%.10g", v) : std::string("null");
  };
  const char* open = pretty ? "{\n  " : "{";
  const char* sep = pretty ? ",\n  " : ", ";
  const char* close = pretty ? "\n}\n" : "}";
  std::ostringstream os;
  os << open;
  os << strformat(
      "\"params\": {\"L_ns\": %s, \"o_ns\": %s, \"g_ns\": %s, "
      "\"G_ns_per_byte\": %s, \"O_ns_per_byte\": %s, \"S_bytes\": %llu}",
      num(rep.params.L).c_str(), num(rep.params.o).c_str(),
      num(rep.params.g).c_str(), num(rep.params.G).c_str(),
      num(rep.params.O).c_str(),
      static_cast<unsigned long long>(rep.params.S));
  os << sep << "\"base_runtime_ns\": " << num(rep.base_runtime);
  os << sep << "\"lambda_l\": " << num(rep.lambda_L_base);
  os << sep << "\"lambda_g\": " << num(rep.lambda_G);
  os << sep << "\"bands\": [";
  for (std::size_t i = 0; i < rep.bands.size(); ++i) {
    os << strformat("{\"percent\": %s, \"tolerance_delta_ns\": %s}",
                    num(rep.bands[i].percent).c_str(),
                    std::isfinite(rep.bands[i].tolerance_delta)
                        ? num(rep.bands[i].tolerance_delta).c_str()
                        : "null");
    if (i + 1 < rep.bands.size()) os << ", ";
  }
  os << ']';
  os << sep << "\"curve\": [";
  for (std::size_t i = 0; i < rep.curve.size(); ++i) {
    os << strformat(
        "{\"delta_l_ns\": %s, \"runtime_ns\": %s, \"lambda_l\": %s, "
        "\"rho_l\": %s}",
        num(rep.curve[i].delta_L).c_str(), num(rep.curve[i].runtime).c_str(),
        num(rep.curve[i].lambda_L).c_str(), num(rep.curve[i].rho_L).c_str());
    if (i + 1 < rep.curve.size()) os << ", ";
  }
  os << ']';
  os << sep << "\"critical_latencies_ns\": [";
  for (std::size_t i = 0; i < rep.critical_latencies.size(); ++i) {
    os << num(rep.critical_latencies[i]);
    if (i + 1 < rep.critical_latencies.size()) os << ", ";
  }
  os << ']' << close;
  return os.str();
}

}  // namespace

std::string ToleranceReport::to_json() const {
  return report_json(*this, /*pretty=*/true);
}

std::string ToleranceReport::to_json_line() const {
  return report_json(*this, /*pretty=*/false);
}

}  // namespace llamp::core
