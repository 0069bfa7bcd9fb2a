#include "api/batch.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::api {
namespace {

std::string error_line(std::size_t id, const std::string& op,
                       const std::string& message, bool usage) {
  std::string out = strformat("{\"id\": %zu, ", id);
  if (!op.empty()) out += "\"op\": \"" + json_escape_string(op) + "\", ";
  out += strformat("\"error\": {\"kind\": \"%s\", \"message\": \"%s\"}}",
                   usage ? "usage" : "analysis",
                   json_escape_string(message).c_str());
  return out;
}

}  // namespace

BatchOutcome serve_jsonl(Engine& engine, std::istream& in, std::ostream& out,
                         int threads) {
  // Registration at the surface's entry point, once per call — the
  // per-line loop below only touches the returned handle (the registry's
  // contract split; llamp-lint rejects lookups inside hot regions).
  obs::Counter parse_error_counter =
      engine.metrics().counter("batch.parse_errors");

  // Phase 1: read and parse every line up front.  Parsing is cheap next to
  // an LP analysis, and knowing the full request list first is what lets
  // phase 2 hand the engine one deterministic, order-indexed batch.
  std::vector<Request> requests;
  std::vector<std::string> parse_errors;  // aligned; empty = parsed
  std::vector<std::string> parse_error_ops;  // best-effort op of bad lines
  {
    const obs::SpanScope parse_span(engine.tracer(), "batch.parse");
    std::string line;
    std::size_t lineno = 0;  // physical 1-based input line
    while (std::getline(in, line)) {
      ++lineno;
      // CRLF input (a Windows-written request file) parses like LF input:
      // getline leaves the '\r' on the line, which would otherwise reach
      // the JSON parser as a trailing byte of every request.
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (trim(line).empty()) continue;
      try {
        requests.push_back(parse_request(line));
        parse_errors.emplace_back();
        parse_error_ops.emplace_back();
      } catch (const Error& e) {
        requests.emplace_back();  // placeholder; never executed
        parse_error_counter.inc();
        // Name the physical input line (blank lines shift it off the id)
        // so the producer of a bad request file can find the offending
        // line.
        parse_errors.push_back(
            strformat("input line %zu: %s", lineno, e.what()));
        // A rejected request (unknown field, bad type) often still names
        // its op; echo it so consumers keying on .op see it on failures
        // too.  Only a line that is not valid JSON at all loses the field.
        std::string op;
        try {
          const JsonValue doc = JsonValue::parse(line);
          if (const JsonValue* o = doc.find("op");
              o && o->kind() == JsonValue::Kind::kString) {
            op = o->as_string("op");
          }
        } catch (const Error&) {
        }
        parse_error_ops.push_back(std::move(op));
      }
    }
  }

  // Phase 2: execute the parseable requests on the engine (the
  // "batch.run" span is recorded inside run_batch itself, so library
  // callers get it too).
  std::vector<std::size_t> runnable;
  std::vector<Request> to_run;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (parse_errors[i].empty()) {
      runnable.push_back(i);
      to_run.push_back(requests[i]);
    }
  }
  const std::vector<Engine::Outcome> outcomes =
      engine.run_batch(to_run, threads);

  // Phase 3: emit one line per request, by input id.
  const obs::SpanScope emit_span(engine.tracer(), "batch.emit");
  BatchOutcome batch;
  batch.requests = requests.size();
  std::vector<std::string> lines(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!parse_errors[i].empty()) {
      lines[i] =
          error_line(i, parse_error_ops[i], parse_errors[i], /*usage=*/true);
      ++batch.failures;
    }
  }
  for (std::size_t j = 0; j < runnable.size(); ++j) {
    const std::size_t i = runnable[j];
    const Engine::Outcome& o = outcomes[j];
    const std::string op = op_name(requests[i]);
    if (o.response) {
      lines[i] = strformat("{\"id\": %zu, \"op\": \"%s\", \"result\": %s}", i,
                           op.c_str(), to_json_line(*o.response).c_str());
    } else {
      lines[i] = error_line(i, op, o.error, o.usage_error);
      ++batch.failures;
    }
  }
  for (const std::string& l : lines) out << l << '\n';
  return batch;
}

}  // namespace llamp::api
