#include "core/report.hpp"

#include <cmath>
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

namespace {

/// One serializer behind both JSON table layouts: `pretty` puts each row on
/// its own line (the CLI's bytes), compact packs them onto one line.  A
/// number-writer cell is written bare, every other cell as a string.
std::string rows_json(const Table& t, bool pretty) {
  std::vector<std::string> keys;  // every row repeats them
  for (const std::string& h : t.headers()) {
    keys.push_back('"' + json_escape_string(h) + "\": ");
  }
  std::string out = pretty ? "[\n" : "[";
  const auto& rows = t.data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (pretty) out += "  ";
    out += '{';
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      const Table::Cell& cell = rows[r][c];
      out += keys[c];
      if (cell.number) {
        out += cell.text;
      } else {
        out += '"';
        out += json_escape_string(cell.text);
        out += '"';
      }
      if (c + 1 < rows[r].size()) out += ", ";
    }
    out += '}';
    if (r + 1 < rows.size()) out += pretty ? ",\n" : ", ";
    else if (pretty) out += '\n';
  }
  out += pretty ? "]\n" : "]";
  return out;
}

}  // namespace

std::string render(const Table& table, OutputFormat format) {
  switch (format) {
    case OutputFormat::kTable: return table.to_string();
    case OutputFormat::kCsv: return table.to_csv();
    case OutputFormat::kJson: return rows_json(table, /*pretty=*/true);
  }
  throw Error("render: bad format");
}

std::string render_json_line(const Table& table) {
  return rows_json(table, /*pretty=*/false);
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
      t.add_row({Table::Cell::fixed(pt.delta_L, 1),
                 Table::Cell::fixed(pt.runtime, 1),
                 Table::Cell::general(pt.lambda_L, 6),
                 Table::Cell::general(pt.rho_L, 6)});
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
  // Every band in one pooled search from the base latency.
  const std::vector<TimeNs> tols = an.tolerance_deltas(opts.band_percents);
  for (std::size_t b = 0; b < tols.size(); ++b) {
    rep.bands.push_back({opts.band_percents[b], tols[b]});
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
  std::string out = pretty ? "{\n  " : "{";
  // Non-finite values must never leak as bare "inf"/"nan" tokens — those
  // are not JSON.  Finite values keep the historical %.10g bytes.
  const auto num = [&out](const char* key, double v) {
    out += key;
    if (std::isfinite(v)) {
      append_general(out, v, 10);
    } else {
      out += "null";
    }
  };
  const char* sep = pretty ? ",\n  " : ", ";
  num("\"params\": {\"L_ns\": ", rep.params.L);
  num(", \"o_ns\": ", rep.params.o);
  num(", \"g_ns\": ", rep.params.g);
  num(", \"G_ns_per_byte\": ", rep.params.G);
  num(", \"O_ns_per_byte\": ", rep.params.O);
  out += ", \"S_bytes\": ";
  append_int(out, rep.params.S);
  out += '}';
  out += sep;
  num("\"base_runtime_ns\": ", rep.base_runtime);
  out += sep;
  num("\"lambda_l\": ", rep.lambda_L_base);
  out += sep;
  num("\"lambda_g\": ", rep.lambda_G);
  out += sep;
  out += "\"bands\": [";
  for (std::size_t i = 0; i < rep.bands.size(); ++i) {
    num(i == 0 ? "{\"percent\": " : ", {\"percent\": ",
        rep.bands[i].percent);
    num(", \"tolerance_delta_ns\": ", rep.bands[i].tolerance_delta);
    out += '}';
  }
  out += ']';
  out += sep;
  out += "\"curve\": [";
  for (std::size_t i = 0; i < rep.curve.size(); ++i) {
    const LatencyAnalyzer::SweepPoint& pt = rep.curve[i];
    num(i == 0 ? "{\"delta_l_ns\": " : ", {\"delta_l_ns\": ", pt.delta_L);
    num(", \"runtime_ns\": ", pt.runtime);
    num(", \"lambda_l\": ", pt.lambda_L);
    num(", \"rho_l\": ", pt.rho_L);
    out += '}';
  }
  out += ']';
  out += sep;
  out += "\"critical_latencies_ns\": [";
  for (std::size_t i = 0; i < rep.critical_latencies.size(); ++i) {
    num(i == 0 ? "" : ", ", rep.critical_latencies[i]);
  }
  out += ']';
  out += pretty ? "\n}\n" : "}";
  return out;
}

}  // namespace

std::string ToleranceReport::to_json() const {
  return report_json(*this, /*pretty=*/true);
}

std::string ToleranceReport::to_json_line() const {
  return report_json(*this, /*pretty=*/false);
}

}  // namespace llamp::core
